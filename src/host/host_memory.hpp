// Host DRAM, pinned DMA regions, and the page hash table.
//
// GM's zero-copy model requires user buffers to live in pinned (unswappable)
// pages so the NIC can DMA them directly (paper Section 2). The page hash
// table maps (port, user virtual page) -> DMA address; it lives in host
// memory and the MCP caches entries in SRAM. We use identity virtual->DMA
// mapping, but the table and its restoration after a card reset are real:
// the MCP refuses DMA for unmapped pages, so a recovery that forgot to
// re-register the table would fail visibly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/lazy_pages.hpp"

namespace myri::host {

/// Physical/DMA address in host memory.
using DmaAddr = std::uint64_t;

inline constexpr std::size_t kPageSize = 4096;

/// Simulated DRAM; pages are materialised on first write (sim::LazyPages),
/// so an 8 MB host costs only what GM actually touches. Move-only.
class HostMemory {
 public:
  explicit HostMemory(std::size_t bytes) : mem_(bytes) {}

  [[nodiscard]] std::size_t size() const noexcept { return mem_.size(); }

  /// Bounds-checked span; empty span if [addr, addr+len) is out of range.
  [[nodiscard]] std::span<std::byte> at(DmaAddr addr, std::size_t len);
  [[nodiscard]] std::span<const std::byte> at(DmaAddr addr,
                                              std::size_t len) const;

  /// Copy helpers; return false (and touch nothing) when out of range.
  bool write(DmaAddr addr, std::span<const std::byte> data);
  bool read(DmaAddr addr, std::span<std::byte> out) const;

 private:
  sim::LazyPages mem_;
};

/// Bump-with-free-list allocator over a pinned window of host memory.
/// Tracks which ranges are pinned so the NIC-side DMA checker can flag
/// wild DMA (the "host computer crash" failure mode of Table 1).
class PinnedAllocator {
 public:
  PinnedAllocator(DmaAddr base, std::size_t len)
      : base_(base), len_(len), next_(base) {}

  /// Allocate a pinned region; returns std::nullopt when exhausted.
  std::optional<DmaAddr> alloc(std::size_t len, std::size_t align = 64);

  /// Release a region previously returned by alloc().
  void free(DmaAddr addr);

  /// True if [addr, addr+len) lies entirely within currently pinned memory.
  [[nodiscard]] bool is_pinned(DmaAddr addr, std::size_t len) const;

  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return in_use_; }

 private:
  struct Region {
    DmaAddr addr;
    std::size_t len;
  };
  DmaAddr base_;
  std::size_t len_;
  DmaAddr next_;
  std::size_t in_use_ = 0;
  std::unordered_map<DmaAddr, std::size_t> live_;   // addr -> len
  std::vector<Region> free_list_;
};

/// (port, virtual page) -> DMA page. Big, so host-resident; the MCP caches
/// entries in SRAM and re-fetches after recovery (paper Section 4.3).
class PageHashTable {
 public:
  void map(std::uint8_t port, std::uint64_t vaddr, DmaAddr dma);
  void unmap_port(std::uint8_t port);

  /// Lookup by any address within a mapped page.
  [[nodiscard]] std::optional<DmaAddr> lookup(std::uint8_t port,
                                              std::uint64_t vaddr) const;

  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }

 private:
  static std::uint64_t key(std::uint8_t port, std::uint64_t vpage) {
    return (static_cast<std::uint64_t>(port) << 52) | vpage;
  }
  std::unordered_map<std::uint64_t, DmaAddr> table_;
};

}  // namespace myri::host
