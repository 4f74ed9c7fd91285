// Traced binary: replaces the global operator new/delete with versions
// that count every heap allocation the process makes (the simulator is
// single-threaded; the counter is atomic only so that any library thread
// cannot tear it). The library's array, sized and nothrow forms forward to
// these two. gm.allocs_per_msg is the count's growth across the measured
// window divided by messages delivered.
#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

namespace perfbench {

std::int64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
