// Unit tests for host memory, pinned allocation, page hash, PCI, interrupts.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "host/host_memory.hpp"
#include "host/interrupts.hpp"
#include "host/pci.hpp"
#include "host/timing.hpp"
#include "sim/event_queue.hpp"

namespace myri::host {
namespace {

TEST(HostMemory, ReadWriteRoundTrip) {
  HostMemory mem(4096);
  std::array<std::byte, 4> data{std::byte{1}, std::byte{2}, std::byte{3},
                                std::byte{4}};
  EXPECT_TRUE(mem.write(100, data));
  std::array<std::byte, 4> out{};
  EXPECT_TRUE(mem.read(100, out));
  EXPECT_EQ(out, data);
}

TEST(HostMemory, OutOfRangeRejected) {
  HostMemory mem(128);
  std::array<std::byte, 4> data{};
  EXPECT_FALSE(mem.write(126, data));
  EXPECT_FALSE(mem.read(1000, data));
  EXPECT_TRUE(mem.at(1000, 4).empty());
}

TEST(HostMemory, BoundaryExactFits) {
  HostMemory mem(128);
  std::array<std::byte, 4> data{};
  EXPECT_TRUE(mem.write(124, data));
  EXPECT_EQ(mem.at(124, 4).size(), 4u);
}

TEST(HostMemory, EmptyCopyIsANoOp) {
  HostMemory mem(128);
  EXPECT_TRUE(mem.write(128, {}));  // an empty span's data() may be null
  EXPECT_TRUE(mem.read(0, {}));
}

TEST(HostMemory, OverflowAddressDoesNotWrap) {
  HostMemory mem(128);
  EXPECT_TRUE(mem.at(~0ull, 4).empty());
}

TEST(HostMemory, FreshEightMegabytesReadZero) {
  HostMemory mem(8u << 20);
  for (const DmaAddr a : {DmaAddr{0}, DmaAddr{4u << 20}, DmaAddr{(8u << 20) - 1}}) {
    std::array<std::byte, 1> b{std::byte{0xff}};
    ASSERT_TRUE(mem.read(a, b));
    EXPECT_EQ(b[0], std::byte{0}) << "addr " << a;
  }
}

TEST(HostMemory, UnmappableSizeThrows) {
  EXPECT_THROW(HostMemory(~std::size_t{0}), std::bad_alloc);
}

TEST(HostMemory, OutOfRangeSpansAreEmptyIncludingWrappingEnds) {
  HostMemory mem(8u << 20);
  EXPECT_TRUE(mem.at(mem.size(), 1).empty());
  EXPECT_TRUE(mem.at(mem.size() - 4, 8).empty());
  EXPECT_TRUE(mem.at(16, ~std::size_t{0}).empty());  // addr + len wraps
  EXPECT_TRUE(mem.at(~DmaAddr{0} - 2, 4).empty());   // so does this one
  EXPECT_EQ(mem.at(mem.size() - 4, 4).size(), 4u);
  const HostMemory& cmem = mem;
  EXPECT_TRUE(cmem.at(16, ~std::size_t{0}).empty());
}

TEST(HostMemory, MoveOnlyAndMovedFromIsSafeToDestroy) {
  static_assert(!std::is_copy_constructible_v<HostMemory>);
  static_assert(std::is_nothrow_move_constructible_v<HostMemory>);
  const std::array<std::byte, 4> data{std::byte{9}, std::byte{8},
                                      std::byte{7}, std::byte{6}};
  auto a = std::make_unique<HostMemory>(1u << 20);
  ASSERT_TRUE(a->write(0x1234, data));
  HostMemory b(std::move(*a));
  a.reset();  // destroy the moved-from object first
  std::array<std::byte, 4> out{};
  ASSERT_TRUE(b.read(0x1234, out));
  EXPECT_EQ(out, data);

  HostMemory c(4096);
  c = std::move(b);
  EXPECT_EQ(c.size(), 1u << 20);
  ASSERT_TRUE(c.read(0x1234, out));
  EXPECT_EQ(out, data);
  EXPECT_TRUE(b.at(0, 1).empty());  // NOLINT(bugprone-use-after-move)
}

TEST(PinnedAllocator, AllocationsAreDisjoint) {
  PinnedAllocator pa(0x1000, 0x10000);
  auto a = pa.alloc(256);
  auto b = pa.alloc(256);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(*a + 256 <= *b || *b + 256 <= *a);
}

TEST(PinnedAllocator, RespectsAlignment) {
  PinnedAllocator pa(0x1001, 0x10000);
  auto a = pa.alloc(10, 64);
  ASSERT_TRUE(a);
  EXPECT_EQ(*a % 64, 0u);
}

TEST(PinnedAllocator, IsPinnedTracksLiveRegions) {
  PinnedAllocator pa(0x1000, 0x10000);
  auto a = pa.alloc(512);
  ASSERT_TRUE(a);
  EXPECT_TRUE(pa.is_pinned(*a, 512));
  EXPECT_TRUE(pa.is_pinned(*a + 100, 100));
  EXPECT_FALSE(pa.is_pinned(*a, 513));
  EXPECT_FALSE(pa.is_pinned(0x20, 4));  // below the pool
}

TEST(PinnedAllocator, FreeUnpins) {
  PinnedAllocator pa(0x1000, 0x10000);
  auto a = pa.alloc(512);
  ASSERT_TRUE(a);
  pa.free(*a);
  EXPECT_FALSE(pa.is_pinned(*a, 512));
  EXPECT_EQ(pa.bytes_in_use(), 0u);
}

TEST(PinnedAllocator, ReusesFreedRegions) {
  PinnedAllocator pa(0x1000, 0x1000);  // small pool
  auto a = pa.alloc(0x800);
  ASSERT_TRUE(a);
  EXPECT_FALSE(pa.alloc(0x900));  // does not fit
  pa.free(*a);
  auto b = pa.alloc(0x700);
  EXPECT_TRUE(b);  // satisfied from the free list
}

TEST(PinnedAllocator, ExhaustionReturnsNullopt) {
  PinnedAllocator pa(0, 1024);
  EXPECT_TRUE(pa.alloc(1000));
  EXPECT_FALSE(pa.alloc(1000));
}

TEST(PinnedAllocator, ZeroLengthAllocSucceeds) {
  PinnedAllocator pa(0, 1024);
  EXPECT_TRUE(pa.alloc(0));
}

TEST(PageHashTable, LookupWithinPage) {
  PageHashTable t;
  t.map(2, 0x10000, 0x10000);
  auto r = t.lookup(2, 0x10123);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 0x10123u);
}

TEST(PageHashTable, MissingPageIsNullopt) {
  PageHashTable t;
  t.map(2, 0x10000, 0x10000);
  EXPECT_FALSE(t.lookup(2, 0x20000));
}

TEST(PageHashTable, PortsAreIsolated) {
  PageHashTable t;
  t.map(2, 0x10000, 0x10000);
  EXPECT_FALSE(t.lookup(3, 0x10000));
}

TEST(PageHashTable, UnmapPortRemovesOnlyThatPort) {
  PageHashTable t;
  t.map(2, 0x10000, 0x10000);
  t.map(3, 0x10000, 0x10000);
  t.unmap_port(2);
  EXPECT_FALSE(t.lookup(2, 0x10000));
  EXPECT_TRUE(t.lookup(3, 0x10000));
}

TEST(PageHashTable, NonIdentityMapping) {
  PageHashTable t;
  t.map(0, 0x5000, 0x9000);
  auto r = t.lookup(0, 0x5010);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 0x9010u);
}

TEST(PciBus, DmaTimeMatchesRatePlusSetup) {
  sim::EventQueue eq;
  PciTiming cfg;
  cfg.mb_per_s = 100.0;  // 1000 bytes -> 10 us
  cfg.dma_setup = sim::usecf(1.0);
  PciBus pci(eq, cfg);
  sim::Time done = 0;
  pci.dma(1000, [&] { done = eq.now(); });
  eq.run();
  EXPECT_EQ(done, sim::usec(11));
}

TEST(PciBus, TransactionsSerialize) {
  sim::EventQueue eq;
  PciTiming cfg;
  cfg.mb_per_s = 100.0;
  cfg.dma_setup = 0;
  PciBus pci(eq, cfg);
  sim::Time first = 0, second = 0;
  pci.dma(1000, [&] { first = eq.now(); });
  pci.dma(1000, [&] { second = eq.now(); });
  eq.run();
  EXPECT_EQ(first, sim::usec(10));
  EXPECT_EQ(second, sim::usec(20));
}

TEST(PciBus, BusyTimeAccounted) {
  sim::EventQueue eq;
  PciTiming cfg;
  cfg.mb_per_s = 100.0;
  cfg.dma_setup = 0;
  PciBus pci(eq, cfg);
  pci.dma(500, [] {});
  pci.dma(500, [] {});
  eq.run();
  EXPECT_EQ(pci.busy_time(), sim::usec(10));
  EXPECT_EQ(pci.transactions(), 2u);
}

TEST(PciBus, PioCostApplies) {
  sim::EventQueue eq;
  PciTiming cfg;
  cfg.pio = 150;
  PciBus pci(eq, cfg);
  sim::Time done = 0;
  pci.pio([&] { done = eq.now(); });
  eq.run();
  EXPECT_EQ(done, 150u);
}

TEST(Interrupts, HandlerRunsAfterLatency) {
  sim::EventQueue eq;
  InterruptTiming cfg;
  cfg.latency = sim::usec(13);
  InterruptController irq(eq, cfg);
  sim::Time fired = 0;
  irq.set_handler(IrqLine::kFatal, [&] { fired = eq.now(); });
  irq.raise(IrqLine::kFatal);
  eq.run();
  EXPECT_EQ(fired, sim::usec(13));
  EXPECT_EQ(irq.delivered(IrqLine::kFatal), 1u);
}

TEST(Interrupts, PendingRaisesCoalesce) {
  sim::EventQueue eq;
  InterruptController irq(eq, {});
  int count = 0;
  irq.set_handler(IrqLine::kFatal, [&] { ++count; });
  irq.raise(IrqLine::kFatal);
  irq.raise(IrqLine::kFatal);
  irq.raise(IrqLine::kFatal);
  eq.run();
  EXPECT_EQ(count, 1);
}

TEST(Interrupts, RearmsAfterDelivery) {
  sim::EventQueue eq;
  InterruptController irq(eq, {});
  int count = 0;
  irq.set_handler(IrqLine::kFatal, [&] { ++count; });
  irq.raise(IrqLine::kFatal);
  eq.run();
  irq.raise(IrqLine::kFatal);
  eq.run();
  EXPECT_EQ(count, 2);
}

TEST(Interrupts, LinesAreIndependent) {
  sim::EventQueue eq;
  InterruptController irq(eq, {});
  int fatal = 0, recv = 0;
  irq.set_handler(IrqLine::kFatal, [&] { ++fatal; });
  irq.set_handler(IrqLine::kRecvEvent, [&] { ++recv; });
  irq.raise(IrqLine::kRecvEvent);
  eq.run();
  EXPECT_EQ(fatal, 0);
  EXPECT_EQ(recv, 1);
}

TEST(Timing, DefaultsMatchPaperTable2) {
  const HostTiming t;
  EXPECT_EQ(t.send_api_overhead, sim::usecf(0.30));
  EXPECT_EQ(t.recv_api_overhead, sim::usecf(0.75));
  EXPECT_EQ(t.ftgm_send_backup, sim::usecf(0.25));
  EXPECT_EQ(t.ftgm_recv_backup, sim::usecf(0.40));
}

TEST(Timing, WatchdogArmedAboveMaxLTimerGap) {
  const WatchdogTiming w;
  EXPECT_GT(w.it1_interval, w.l_timer_max_gap);
  EXPECT_GT(w.l_timer_max_gap, w.l_timer_interval);
}

TEST(Timing, LanaiCycleTime) {
  LanaiTiming t;
  t.cpu_mhz = 132.0;
  EXPECT_EQ(t.cycle_time_ns(), 8u);  // rounded 7.57 ns
}

}  // namespace
}  // namespace myri::host
