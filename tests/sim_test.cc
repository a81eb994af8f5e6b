// Simulator-core tests: event ordering and determinism, link loss and
// latency behaviour, path construction, RTT-bound nesting (the property
// the protocol wait-timer cascade relies on), storage metering, and
// traffic accounting. The event queue is checked against a reference
// stable sort under heavy ties, and the inline handlers for capture
// lifetime and for allocation-free scheduling once warm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <vector>

#include "sim/link.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "sim/storage.h"
#include "sim/trace.h"

// Counting global operator new: off except inside a test's measured
// window, and per thread, so gtest's own allocations never count. Every
// replaceable form is defined, so each allocation and its release come
// from the same malloc family (ASan checks the pairing).
namespace {
thread_local bool t_count_allocs = false;
thread_local std::uint64_t t_allocs = 0;

void* counted(std::size_t size, std::size_t align) {
  if (t_count_allocs) ++t_allocs;
  if (align <= alignof(std::max_align_t)) {
    return std::malloc(size == 0 ? 1 : size);
  }
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return or_throw(counted(n, 0)); }
void* operator new[](std::size_t n) { return or_throw(counted(n, 0)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return or_throw(counted(n, static_cast<std::size_t>(a)));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return or_throw(counted(n, static_cast<std::size_t>(a)));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
// GCC reads free() inside a replacement operator delete as a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace paai::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, TieBreakIsSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingFromHandlers) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.at(10, [&] {
    times.push_back(sim.now());
    sim.after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  SimTime fired = -1;
  sim.at(100, [&] {
    sim.at(50, [&] { fired = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired, 100);
}

TEST(Simulator, RunUntilStopsBeforeBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired, 2);
}

PacketEnv make_env(Direction dir) {
  net::DataPacket pkt{1, 2, 100};
  auto wire = std::make_shared<const Bytes>(pkt.encode());
  return PacketEnv{wire, pkt.wire_size(), dir};
}

// Drives a queue with heavy ties: times come from [0, 64) and most
// handlers schedule a follow-up at now + [-1, 3] (a past time clamps to
// now), so same-instant events are the common case. Records every
// scheduled event and the firing order.
struct TieStorm {
  Simulator sim;
  std::uint64_t rng = 0x2545f4914f6cdd1dULL;
  std::vector<SimTime> time_of;  // scheduled (clamped) time, by schedule index
  std::vector<std::uint32_t> fired;
  std::size_t budget = 0;

  std::uint64_t next() {  // xorshift64
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }

  void schedule(SimTime t) {
    const auto id = static_cast<std::uint32_t>(time_of.size());
    time_of.push_back(std::max(t, sim.now()));
    sim.at(t, [this, id] {
      fired.push_back(id);
      if (time_of.size() < budget && next() % 4 != 0) {
        // Occasionally in the past, to exercise the clamp to now().
        const auto delta = static_cast<SimTime>(next() % 5) - 1;
        schedule(sim.now() + delta);
      }
    });
  }

  TieStorm(std::size_t initial, std::size_t total) : budget(total) {
    for (std::size_t i = 0; i < initial; ++i) {
      schedule(static_cast<SimTime>(next() % 64));
    }
  }

  /// Reference firing order: every scheduled event stable-sorted by time,
  /// i.e. sorted on (time, schedule sequence).
  std::vector<std::uint32_t> reference() const {
    std::vector<std::uint32_t> ids(time_of.size());
    std::iota(ids.begin(), ids.end(), 0u);
    std::stable_sort(ids.begin(), ids.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return time_of[a] < time_of[b];
                     });
    return ids;
  }
};

TEST(Simulator, HeapOrderMatchesStableSortUnderHeavyTies) {
  TieStorm storm(40000, 60000);
  storm.sim.run();
  ASSERT_GE(storm.time_of.size(), 50000u);
  EXPECT_EQ(storm.fired.size(), storm.time_of.size());
  EXPECT_EQ(storm.sim.events_processed(), storm.time_of.size());
  EXPECT_TRUE(storm.fired == storm.reference());
}

TEST(Simulator, RunUntilStopsAtTheSameBoundaryUnderHeavyTies) {
  TieStorm full(40000, 60000);
  full.sim.run();
  const auto order = full.reference();

  for (const SimTime boundary : {SimTime{0}, SimTime{1}, SimTime{37},
                                 SimTime{64}, SimTime{1000}}) {
    TieStorm storm(40000, 60000);
    storm.sim.run_until(boundary);
    EXPECT_EQ(storm.sim.now(), boundary);
    const auto before = static_cast<std::size_t>(std::count_if(
        order.begin(), order.end(),
        [&](std::uint32_t id) { return full.time_of[id] < boundary; }));
    ASSERT_EQ(storm.fired.size(), before) << "boundary " << boundary;
    EXPECT_TRUE(std::equal(storm.fired.begin(), storm.fired.end(),
                           order.begin()));
    storm.sim.run();
    EXPECT_TRUE(storm.fired == order) << "boundary " << boundary;
  }
}

TEST(SimulatorHandler, SharedCaptureDestroyedOnceAfterFiring) {
  auto token = std::make_shared<int>(7);
  Simulator sim;
  int seen = 0;
  sim.at(1, [token, &seen] { seen += *token; });
  sim.at(2, [token, &seen] { seen += *token; });
  EXPECT_EQ(token.use_count(), 3);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorHandler, PendingCapturesDestroyedWithSimulator) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    // Enough pending events to span several slab chunks.
    for (int i = 0; i < 1000; ++i) sim.at(i, [token] {});
    sim.at(0, [token, &sim] { sim.after(5, [token] {}); });
    sim.run_until(1);
    EXPECT_GT(sim.pending(), 0u);
    EXPECT_EQ(token.use_count(), 1 + static_cast<long>(sim.pending()));
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorHandler, MoveTransfersOwnership) {
  auto token = std::make_shared<int>(0);
  int calls = 0;
  Simulator::Handler a([token, &calls] { ++calls; });
  EXPECT_EQ(token.use_count(), 2);
  Simulator::Handler b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(token.use_count(), 2);
  a = std::move(b);
  EXPECT_EQ(token.use_count(), 2);
  a = Simulator::Handler([] {});
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorHandler, CapacityAdmitsTheDeliveryCaptureOnly) {
  struct Delivery {
    Node* target;
    PacketEnv env;
  };
  struct Oversized {
    unsigned char bytes[Simulator::Handler::kCapacity + 1];
  };
  struct alignas(16) OverAligned {
    int x;
  };
  static_assert(Simulator::Handler::kFits<Delivery>);
  static_assert(!Simulator::Handler::kFits<Oversized>);
  static_assert(!Simulator::Handler::kFits<OverAligned>);
  static_assert(!std::is_copy_constructible_v<Simulator::Handler>);
  SUCCEED();
}

TEST(SimulatorHandler, WarmQueueSchedulesWithoutAllocating) {
  Simulator sim;
  Node target(sim, 3);
  const PacketEnv env = make_env(Direction::kToDest);
  std::size_t delivered = 0;
  constexpr int kDepth = 64;
  auto deliver = [&sim, &delivered, &env, &target](SimDuration delay) {
    sim.after(delay, [t = &target, env, &delivered] {
      delivered += t->index() + env.wire_size;
    });
  };
  // Warm-up: grow the heap, slab and free list to the steady depth.
  for (int i = 0; i < kDepth; ++i) deliver(i % 7);
  for (int i = 0; i < 4 * kDepth; ++i) {
    deliver(i % 7);
    sim.step();
  }

  t_allocs = 0;
  t_count_allocs = true;
  for (int i = 0; i < 10000; ++i) {
    deliver((i * 7919) % 13);
    sim.step();
  }
  t_count_allocs = false;
  EXPECT_EQ(t_allocs, 0u);
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kDepth));
  EXPECT_EQ(delivered, (4 * kDepth + 10000) * (3 + env.wire_size));
  EXPECT_EQ(env.wire.use_count(), 1 + kDepth);
}

TEST(StorageMeter, TracksCurrentAndPeak) {
  StorageMeter m;
  m.add(3);
  m.add();
  EXPECT_EQ(m.current(), 4u);
  EXPECT_EQ(m.peak(), 4u);
  m.remove(2);
  EXPECT_EQ(m.current(), 2u);
  EXPECT_EQ(m.peak(), 4u);
  m.remove(10);  // saturates at zero
  EXPECT_EQ(m.current(), 0u);
}

TEST(TrafficCounters, AggregatesByTypeAndOverhead) {
  TrafficCounters c(3);
  c.on_transmit(net::PacketType::kData, 1000, 0);
  c.on_transmit(net::PacketType::kData, 1000, 1);
  c.on_transmit(net::PacketType::kDestAck, 25, 1);
  c.on_transmit(net::PacketType::kProbe, 25, 2);
  c.on_link_drop(1, net::PacketType::kData);
  EXPECT_EQ(c.by_type(net::PacketType::kData).packets, 2u);
  EXPECT_EQ(c.by_type(net::PacketType::kDestAck).bytes, 25u);
  EXPECT_DOUBLE_EQ(c.overhead_ratio(), 50.0 / 2000.0);
  EXPECT_DOUBLE_EQ(c.control_packets_per_data(), 1.0);
  EXPECT_EQ(c.drops_on_link(1), 1u);
  EXPECT_EQ(c.drops_on_link(0), 0u);
  EXPECT_EQ(c.data_tx(1), 1u);
  EXPECT_EQ(c.data_drops(1), 1u);
  EXPECT_DOUBLE_EQ(c.true_link_loss(1), 1.0);
  EXPECT_DOUBLE_EQ(c.true_link_loss(0), 0.0);
  EXPECT_EQ(c.total_packets(), 4u);
  c.reset();
  EXPECT_EQ(c.total_packets(), 0u);
  EXPECT_EQ(c.data_tx(1), 0u);
}

class CountingAgent final : public Agent {
 public:
  void on_packet(const PacketEnv& env) override {
    ++received;
    last_size = env.wire_size;
  }
  int received = 0;
  std::size_t last_size = 0;
};

TEST(Link, DeliversAfterLatencyWithoutLoss) {
  Simulator sim;
  TrafficCounters counters(1);
  Node a(sim, 0), b(sim, 1);
  Link link(sim, 0, /*loss=*/0.0, milliseconds(3.0), Rng(1), &counters);
  link.connect(&a, &b);
  a.set_link_toward_dest(&link);
  b.set_link_toward_source(&link);
  auto agent = std::make_unique<CountingAgent>();
  CountingAgent* bp = agent.get();
  b.attach_agent(std::move(agent));

  a.originate(Direction::kToDest, make_env(Direction::kToDest).wire, 119);
  sim.run();
  EXPECT_EQ(bp->received, 1);
  EXPECT_EQ(bp->last_size, 119u);
  EXPECT_EQ(sim.now(), milliseconds(3.0));
  EXPECT_EQ(counters.by_type(net::PacketType::kData).packets, 1u);
}

TEST(Link, EmpiricalLossRateMatchesConfig) {
  Simulator sim;
  TrafficCounters counters(1);
  Node a(sim, 0), b(sim, 1);
  Link link(sim, 0, /*loss=*/0.1, 0, Rng(99), &counters);
  link.connect(&a, &b);
  auto agent = std::make_unique<CountingAgent>();
  CountingAgent* bp = agent.get();
  b.attach_agent(std::move(agent));

  const int n = 20000;
  const auto env = make_env(Direction::kToDest);
  for (int i = 0; i < n; ++i) link.transmit(env);
  sim.run();
  const double delivered = static_cast<double>(bp->received) / n;
  EXPECT_NEAR(delivered, 0.9, 0.01);
  EXPECT_EQ(counters.drops_on_link(0) + bp->received,
            static_cast<std::uint64_t>(n));
}

TEST(PathNetwork, BuildsChainAndValidates) {
  Simulator sim;
  PathConfig cfg;
  cfg.length = 6;
  cfg.seed = 3;
  PathNetwork net(sim, cfg);
  EXPECT_EQ(net.length(), 6u);
  EXPECT_EQ(net.source().index(), 0u);
  EXPECT_EQ(net.destination().index(), 6u);
  EXPECT_EQ(net.node(3).link_toward_dest(), &net.link(3));
  EXPECT_EQ(net.node(3).link_toward_source(), &net.link(2));
  EXPECT_EQ(net.source().link_toward_source(), nullptr);
  EXPECT_EQ(net.destination().link_toward_dest(), nullptr);

  PathConfig bad;
  bad.length = 1;
  EXPECT_THROW(PathNetwork(sim, bad), std::invalid_argument);
}

TEST(PathNetwork, LatenciesWithinConfiguredRange) {
  Simulator sim;
  PathConfig cfg;
  cfg.length = 6;
  cfg.min_latency_ms = 0.0;
  cfg.max_latency_ms = 5.0;
  cfg.seed = 11;
  PathNetwork net(sim, cfg);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GE(net.link(i).latency(), 0);
    EXPECT_LE(net.link(i).latency(), milliseconds(5.0));
  }
}

TEST(PathNetwork, RttBoundsNestStrictly) {
  // r_i > r_{i+1} + 2 * latency(l_i): the wait-timer cascade property —
  // a downstream node's timed-out report always beats its upstream
  // neighbour's own deadline.
  Simulator sim;
  PathConfig cfg;
  cfg.length = 8;
  cfg.seed = 17;
  PathNetwork net(sim, cfg);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_GT(net.rtt_bound(i),
              net.rtt_bound(i + 1) + 2 * net.link(i).latency())
        << "at node " << i;
  }
  EXPECT_EQ(net.rtt_bound(8), 0);
  EXPECT_THROW(net.rtt_bound(9), std::out_of_range);
}

TEST(PathNetwork, ClockOffsetsWithinSyncBound) {
  Simulator sim;
  PathConfig cfg;
  cfg.length = 6;
  cfg.max_clock_error_ms = 2.0;
  cfg.seed = 23;
  PathNetwork net(sim, cfg);
  for (std::size_t i = 0; i <= 6; ++i) {
    const SimTime local = net.node(i).local_now();
    EXPECT_LE(std::abs(local - sim.now()), milliseconds(2.0));
  }
}

TEST(PathNetwork, DeterministicForSeed) {
  Simulator s1, s2;
  PathConfig cfg;
  cfg.length = 6;
  cfg.seed = 5;
  PathNetwork a(s1, cfg), b(s2, cfg);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a.link(i).latency(), b.link(i).latency());
  }
}

TEST(TrafficCounters, RatiosAreZeroWithoutDataTraffic) {
  // Pure control traffic: the per-data ratios must not divide by zero.
  TrafficCounters c(4);
  c.on_transmit(net::PacketType::kProbe, 40, 0);
  c.on_transmit(net::PacketType::kDestAck, 24, 3);
  EXPECT_EQ(c.overhead_ratio(), 0.0);
  EXPECT_EQ(c.control_packets_per_data(), 0.0);
  EXPECT_EQ(c.total_packets(), 2u);
  EXPECT_EQ(c.total_bytes(), 64u);
}

TEST(TrafficCounters, TrueLinkLossOnUntraversedLinkIsZero) {
  TrafficCounters c(4);
  // No data packet ever entered link 2 — loss is 0/0, reported as 0, and
  // out-of-range indices behave the same instead of reading past the end.
  EXPECT_EQ(c.true_link_loss(2), 0.0);
  EXPECT_EQ(c.true_link_loss(99), 0.0);
  EXPECT_EQ(c.data_tx(99), 0u);
  EXPECT_EQ(c.data_drops(99), 0u);
  EXPECT_EQ(c.drops_on_link(99), 0u);
  // One traversal, one drop: loss is exact, neighbours stay untouched.
  c.on_transmit(net::PacketType::kData, 1500, 1);
  c.on_link_drop(1, net::PacketType::kData);
  EXPECT_EQ(c.true_link_loss(1), 1.0);
  EXPECT_EQ(c.true_link_loss(0), 0.0);
}

TEST(TrafficCounters, ResetClearsEverything) {
  TrafficCounters c(2);
  c.on_transmit(net::PacketType::kData, 1500, 0);
  c.on_transmit(net::PacketType::kProbe, 40, 0);
  c.on_link_drop(0, net::PacketType::kData);
  c.on_link_drop(1, net::PacketType::kProbe);
  c.reset();
  EXPECT_EQ(c.total_packets(), 0u);
  EXPECT_EQ(c.total_bytes(), 0u);
  EXPECT_EQ(c.data_tx(0), 0u);
  EXPECT_EQ(c.data_drops(0), 0u);
  EXPECT_EQ(c.drops_on_link(0), 0u);
  EXPECT_EQ(c.drops_on_link(1), 0u);
  EXPECT_EQ(c.true_link_loss(0), 0.0);
  EXPECT_EQ(c.by_type(net::PacketType::kData).packets, 0u);
  // The instance stays usable after reset.
  c.on_transmit(net::PacketType::kData, 100, 1);
  EXPECT_EQ(c.data_tx(1), 1u);
}

}  // namespace
}  // namespace paai::sim
