// Lazily zeroed, page-granular backing store for simulated memories.
//
// Every node carries megabytes of host DRAM and LANai SRAM, but a run
// touches a few pages of each: the pinned buffers a port registers, the
// MCP image, the staging buffers. Anonymous private pages cost nothing
// until written, so a 512-node cluster only materialises what the model
// uses (real GM likewise pins only the pages a port registers, paper
// Section 2). Reads of untouched pages see zeros, exactly as the
// value-initialised vector this replaces did.
#pragma once

#include <cstddef>

namespace myri::sim {

class LazyPages {
 public:
  /// Reserve `bytes` of zero-reading memory. Throws std::bad_alloc when
  /// the address space cannot be mapped.
  explicit LazyPages(std::size_t bytes);
  ~LazyPages();

  LazyPages(LazyPages&& other) noexcept;
  LazyPages& operator=(LazyPages&& other) noexcept;
  LazyPages(const LazyPages&) = delete;
  LazyPages& operator=(const LazyPages&) = delete;

  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Drop every page: all bytes read 0 again and the memory goes back to
  /// the kernel. Addresses stay valid.
  void zero() noexcept;

 private:
  void release() noexcept;

  std::byte* map_ = nullptr;  // start of the mapping (page aligned)
  std::size_t usable_ = 0;    // whole pages before the trailing guard page
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace myri::sim
