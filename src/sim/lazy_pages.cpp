#include "sim/lazy_pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <limits>
#include <new>
#include <utility>

namespace myri::sim {

namespace {

std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

LazyPages::LazyPages(std::size_t bytes) : size_(bytes) {
  const std::size_t page = page_size();
  // Rounding up (plus the guard page) must not wrap.
  if (bytes > std::numeric_limits<std::size_t>::max() / 2) {
    throw std::bad_alloc();
  }
  usable_ = (bytes + page - 1) / page * page;
  // NORESERVE: the whole simulated capacity is address space, not commit
  // charge; only written pages are ever backed.
  void* p = mmap(nullptr, usable_ + page, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  map_ = static_cast<std::byte*>(p);
  // With transparent huge pages set to "always", one touched byte would
  // otherwise fault in 2 MB. Advisory: a kernel without THP refuses it.
  if (usable_ != 0) (void)madvise(map_, usable_, MADV_NOHUGEPAGE);
  // The guard page traps an unchecked overrun the way a heap redzone
  // does. The data ends as close to it as max_align_t alignment allows,
  // so the trap is exact for page-multiple sizes (every configured one).
  if (mprotect(map_ + usable_, page, PROT_NONE) != 0) {
    release();
    throw std::bad_alloc();
  }
  data_ = map_ + ((usable_ - bytes) & ~(alignof(std::max_align_t) - 1));
}

LazyPages::~LazyPages() { release(); }

LazyPages::LazyPages(LazyPages&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      usable_(std::exchange(other.usable_, 0)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

LazyPages& LazyPages::operator=(LazyPages&& other) noexcept {
  if (this != &other) {
    release();
    map_ = std::exchange(other.map_, nullptr);
    usable_ = std::exchange(other.usable_, 0);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void LazyPages::zero() noexcept {
  // Private anonymous pages read back as zero-fill after DONTNEED.
  if (usable_ != 0) (void)madvise(map_, usable_, MADV_DONTNEED);
}

void LazyPages::release() noexcept {
  if (map_ != nullptr) munmap(map_, usable_ + page_size());
  map_ = nullptr;
  usable_ = 0;
  data_ = nullptr;
  size_ = 0;
}

}  // namespace myri::sim
