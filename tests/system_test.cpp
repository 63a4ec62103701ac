// System-level tests: concurrency, congestion, fairness, full-duplex
// behaviour, and bit-for-bit determinism of the simulator.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "fabric/sub_cluster.h"

namespace tca::fabric {
namespace {

using driver::Peach2Driver;
using peach2::DmaDescriptor;
using peach2::DmaDirection;
using units::us;

SubClusterConfig cluster_config(std::uint32_t nodes) {
  return SubClusterConfig{
      .spec = fabric::TopologySpec::ring(nodes),
      .node_config = {.gpu_count = 2,
                      .host_backing_bytes = 16 << 20,
                      .gpu_backing_bytes = 4 << 20}};
}

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 53 + i * 7) & 0xff);
  }
  return v;
}

void stage_ram(SubCluster& tca, std::uint32_t node, std::uint8_t seed) {
  auto data = pattern(1 << 20, seed);
  tca.chip(node).internal_ram().write(0, data);
}

/// 255 x 4 KiB chained write from `src` to `dst`'s host; returns elapsed.
sim::Task<TimePs> chained_write(SubCluster& tca, std::uint32_t src,
                                std::uint32_t dst) {
  Peach2Driver& drv = tca.driver(src);
  std::vector<DmaDescriptor> chain;
  for (std::uint32_t i = 0; i < 255; ++i) {
    chain.push_back({.src = drv.internal_global((i * 4096) % (1 << 20)),
                     .dst = tca.global_host(dst, (i * 4096) % (1 << 20)),
                     .length = 4096,
                     .direction = DmaDirection::kWrite});
  }
  co_return (co_await drv.run_chain(std::move(chain))).elapsed;
}

TEST(System, FullDuplexTransfersDoNotInterfere) {
  // Node0 -> node1 and node1 -> node0 simultaneously: separate cables and
  // full-duplex links mean each direction runs at full speed.
  TimePs solo = 0;
  {
    sim::Scheduler sched;
    SubCluster tca(sched, cluster_config(2));
    stage_ram(tca, 0, 1);
    auto t = chained_write(tca, 0, 1);
    sched.run();
    solo = t.result();
  }
  {
    sim::Scheduler sched;
    SubCluster tca(sched, cluster_config(2));
    stage_ram(tca, 0, 1);
    stage_ram(tca, 1, 2);
    auto t01 = chained_write(tca, 0, 1);
    auto t10 = chained_write(tca, 1, 0);
    sched.run();
    // Within 5% of the solo time in both directions.
    EXPECT_LT(t01.result(), solo * 105 / 100);
    EXPECT_LT(t10.result(), solo * 105 / 100);
  }
}

TEST(System, ConvergingFlowsShareTheBottleneckLink) {
  // In a 4-node ring, node1 -> node0 and node2 -> node0 (via node1's W
  // cable for one, direct for the other)... choose flows that share node0's
  // incoming W cable: node1->node0 goes West (1 hop); node2->node0 ties to
  // East per the tie-break, so use node3->node0 (East... ) — pick
  // node1->node0 and node2->node0 where node2 routes W through node1:
  // cw(2->0)=2, ccw=2 -> East through node3. Instead share the *N link* of
  // node0: flows from node1 (W) and node3 (E) both terminate in node0's
  // host through its single x8 slot link.
  TimePs solo = 0;
  {
    sim::Scheduler sched;
    SubCluster tca(sched, cluster_config(4));
    stage_ram(tca, 1, 1);
    auto t = chained_write(tca, 1, 0);
    sched.run();
    solo = t.result();
  }
  sim::Scheduler sched;
  SubCluster tca(sched, cluster_config(4));
  stage_ram(tca, 1, 1);
  stage_ram(tca, 3, 2);
  auto a = chained_write(tca, 1, 0);
  auto b = chained_write(tca, 3, 0);
  sched.run();
  // Two flows into one x8 slot: each materially slower than solo, and
  // neither starved (fair share within 35%).
  EXPECT_GT(a.result(), solo * 115 / 100);
  EXPECT_GT(b.result(), solo * 115 / 100);
  const double ratio = static_cast<double>(a.result()) /
                       static_cast<double>(b.result());
  EXPECT_GT(ratio, 0.65);
  EXPECT_LT(ratio, 1.55);
}

TEST(System, ForwardedTrafficAndLocalDmaCoexist) {
  // Node1 relays node0->node2 traffic while running its own local DMA:
  // both complete, data intact.
  sim::Scheduler sched;
  SubCluster tca(sched, cluster_config(4));
  stage_ram(tca, 0, 3);
  stage_ram(tca, 1, 4);

  auto through = chained_write(tca, 0, 2);  // 2 hops eastward via node1
  Peach2Driver& drv1 = tca.driver(1);
  std::vector<DmaDescriptor> local;
  for (std::uint32_t i = 0; i < 128; ++i) {
    local.push_back({.src = drv1.internal_global(i * 4096),
                     .dst = drv1.host_buffer_global(i * 4096),
                     .length = 4096,
                     .direction = DmaDirection::kWrite});
  }
  auto own = drv1.run_chain(std::move(local));
  sched.run();
  ASSERT_TRUE(through.done() && own.done());

  std::vector<std::byte> got(4096), want(4096);
  tca.node(2).cpu().read_host(0, got);
  tca.chip(0).internal_ram().read(0, want);
  EXPECT_EQ(got, want);
  tca.node(1).cpu().read_host(0, got);
  tca.chip(1).internal_ram().read(0, want);
  EXPECT_EQ(got, want);
}

TEST(System, AllNodesDmaSimultaneouslyToNeighbors) {
  sim::Scheduler sched;
  SubCluster tca(sched, cluster_config(8));
  std::vector<sim::Task<TimePs>> tasks;
  for (std::uint32_t n = 0; n < 8; ++n) {
    stage_ram(tca, n, static_cast<std::uint8_t>(10 + n));
    tasks.push_back(chained_write(tca, n, (n + 1) % 8));
  }
  sched.run();
  for (std::uint32_t n = 0; n < 8; ++n) {
    ASSERT_TRUE(tasks[n].done());
    // Neighbor flows use disjoint cables: near-solo bandwidth everywhere.
    const double gbps =
        units::gbytes_per_second(255ull * 4096, tasks[n].result());
    EXPECT_GT(gbps, 3.1) << "node " << n;
    // Data intact at each destination.
    std::vector<std::byte> got(4096), want(4096);
    tca.node((n + 1) % 8).cpu().read_host(0, got);
    tca.chip(n).internal_ram().read(0, want);
    EXPECT_EQ(got, want) << "node " << n;
  }
}

TEST(System, SimulationIsDeterministic) {
  auto run_once = [] {
    sim::Scheduler sched;
    SubCluster tca(sched, cluster_config(4));
    stage_ram(tca, 0, 1);
    stage_ram(tca, 2, 2);
    auto a = chained_write(tca, 0, 1);
    auto b = chained_write(tca, 2, 3);
    auto pio = tca.driver(1).pio_store_u32(tca.global_host(3, 0x100), 77);
    sched.run();
    return std::tuple(a.result(), b.result(), sched.now(),
                      sched.events_processed());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
}

TEST(System, BackToBackChainsFromOneDriverSerialize) {
  sim::Scheduler sched;
  SubCluster tca(sched, cluster_config(2));
  stage_ram(tca, 0, 5);
  Peach2Driver& drv = tca.driver(0);

  auto seq = [](SubCluster& t, Peach2Driver& d) -> sim::Task<TimePs> {
    const TimePs t0 = t.node(0).cpu().scheduler().now();
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<DmaDescriptor> chain{
          DmaDescriptor{.src = d.internal_global(0),
                        .dst = t.global_host(1, 0),
                        .length = 4096,
                        .direction = DmaDirection::kWrite}};
      co_await d.run_chain(std::move(chain));
    }
    co_return t.node(0).cpu().scheduler().now() - t0;
  }(tca, drv);
  sched.run();
  ASSERT_TRUE(seq.done());
  EXPECT_EQ(tca.chip(0).dmac().chains_completed(), 4u);
}

TEST(System, PioAndDmaInterleaveSafely) {
  // PIO stores issued while a DMA chain is in flight arrive intact and do
  // not corrupt the chain.
  sim::Scheduler sched;
  SubCluster tca(sched, cluster_config(2));
  stage_ram(tca, 0, 6);

  auto dma = chained_write(tca, 0, 1);
  std::vector<sim::Task<>> stores;
  for (std::uint32_t i = 0; i < 16; ++i) {
    stores.push_back(tca.driver(0).pio_store_u32(
        tca.global_host(1, (2 << 20) + i * 64), 0xBEE0 + i));
  }
  sched.run();
  ASSERT_TRUE(dma.done());

  for (std::uint32_t i = 0; i < 16; ++i) {
    std::uint32_t got = 0;
    tca.node(1).cpu().read_host((2 << 20) + i * 64,
                                std::as_writable_bytes(std::span(&got, 1)));
    EXPECT_EQ(got, 0xBEE0 + i);
  }
  std::vector<std::byte> got(4096), want(4096);
  tca.node(1).cpu().read_host(0, got);
  tca.chip(0).internal_ram().read(0, want);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace tca::fabric
