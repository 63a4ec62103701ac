// Tests for the observability layer: MetricRegistry semantics, the exact
// JSON document to_json() writes, and a system-level conservation check
// that the per-link byte counters exactly account for payload + TLP
// overhead on a 4-node ring transfer.
#include <gtest/gtest.h>

#include "api/tca.h"
#include "obs/metrics.h"

namespace tca::obs {
namespace {

TEST(MetricRegistry, CounterFindOrCreateAccumulates) {
  MetricRegistry reg;
  reg.counter("node0.peach2.dmac.ch2.descriptors").add();
  reg.counter("node0.peach2.dmac.ch2.descriptors").add(4);
  EXPECT_EQ(reg.counter_value("node0.peach2.dmac.ch2.descriptors"), 5u);
  EXPECT_TRUE(reg.has_counter("node0.peach2.dmac.ch2.descriptors"));
  EXPECT_FALSE(reg.has_counter("node0.peach2.dmac.ch3.descriptors"));
  EXPECT_EQ(reg.counter_value("absent"), 0u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistry, ReferencesAreStableAcrossInsertions) {
  MetricRegistry reg;
  Counter& a = reg.counter("a");
  // Force rebalancing-ish churn; std::map nodes must not move.
  for (int i = 0; i < 256; ++i) {
    reg.counter("n" + std::to_string(i)).add();
  }
  a.add(7);
  EXPECT_EQ(reg.counter_value("a"), 7u);
}

TEST(MetricRegistry, GaugeKeepsLatestValue) {
  MetricRegistry reg;
  reg.gauge("fabric.node_count").set(4);
  reg.gauge("fabric.node_count").set(8);
  EXPECT_DOUBLE_EQ(reg.gauge_value("fabric.node_count"), 8.0);
}

TEST(MetricRegistry, HistogramMomentsAndPercentiles) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("lat");
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(95), 95.0, 1.0);
  EXPECT_NEAR(h.percentile(99), 99.0, 1.0);
  EXPECT_TRUE(reg.has_histogram("lat"));
}

// Pins the writer byte for byte: the schema marker, section order, integer
// rendering of whole values, and the histogram summary fields.
TEST(MetricRegistry, ToJsonWritesExactDocument) {
  MetricRegistry reg;
  reg.counter("fabric.tlps").add(32);
  reg.gauge("fabric.link_efficiency").set(0.5);
  reg.histogram("api.memcpy.latency_ps").record(1000);
  EXPECT_EQ(reg.to_json(),
            "{\n"
            "  \"meta\": {\"schema\": \"tca-metrics-v1\"},\n"
            "  \"counters\": {\n"
            "    \"fabric.tlps\": 32\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"fabric.link_efficiency\": 0.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"api.memcpy.latency_ps\": {\"count\": 1, \"mean\": 1000, "
            "\"min\": 1000, \"max\": 1000, \"p50\": 1000, \"p95\": 1000, "
            "\"p99\": 1000}\n"
            "  }\n"
            "}\n");
}

TEST(SamplingGate, DefaultsOffAndToggles) {
  EXPECT_FALSE(sampling_enabled());
  set_sampling_enabled(true);
  EXPECT_TRUE(sampling_enabled());
  set_sampling_enabled(false);
  EXPECT_FALSE(sampling_enabled());
}

// ---------------------------------------------------------------------------
// System-level conservation: every byte injected at node 0 must show up,
// exactly accounted, on each cable it crosses and in the destination host.
// ---------------------------------------------------------------------------

class Conservation : public ::testing::Test {
 protected:
  static api::TcaConfig config() {
    return api::TcaConfig{
        .spec = fabric::TopologySpec::ring(4),
        .node_config = {.gpu_count = 2,
                        .host_backing_bytes = 8 << 20,
                        .gpu_backing_bytes = 4 << 20}};
  }
};

TEST_F(Conservation, RingTransferBytesAreExactlyAccounted) {
  sim::Scheduler sched;
  auto rt = api::Runtime::create(sched, config());
  ASSERT_TRUE(rt.is_ok());
  api::Runtime& tca = rt.value();

  constexpr std::uint64_t kBytes = 8192;  // > PIO threshold: DMA path
  auto src = tca.alloc_host(0, 64 << 10).value();
  auto dst = tca.alloc_host(2, 64 << 10).value();
  std::vector<std::byte> data(kBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7 + 1);
  }
  tca.write(src, 0, data);

  MetricRegistry before;
  tca.export_metrics(before);

  auto t = tca.memcpy_peer(dst, 0, src, 0, kBytes);
  sched.run();
  ASSERT_TRUE(t.result().is_ok()) << t.result().to_string();

  MetricRegistry after;
  tca.export_metrics(after);
  auto delta = [&](std::string_view name) {
    return after.counter_value(name) - before.counter_value(name);
  };

  // node0 -> node2 on a 4-ring: clockwise and counter-clockwise are tied
  // (2 hops each); the router breaks ties eastward, so the payload crosses
  // cables 0-1 and 1-2 in the forward direction.
  constexpr std::uint64_t kTlps =
      (kBytes + calib::kMaxPayloadBytes - 1) / calib::kMaxPayloadBytes;
  constexpr std::uint64_t kWire =
      kBytes + kTlps * calib::kTlpWithDataOverheadBytes;
  for (const char* cable : {"pcie.cable.0-1.fwd", "pcie.cable.1-2.fwd"}) {
    const std::string base(cable);
    EXPECT_EQ(delta(base + ".payload_bytes"), kBytes) << cable;
    EXPECT_EQ(delta(base + ".tlps"), kTlps) << cable;
    EXPECT_EQ(delta(base + ".wire_bytes"), kWire) << cable;
    EXPECT_EQ(delta(base + ".replays"), 0u) << cable;
  }
  // Nothing travelled back along the data path...
  EXPECT_EQ(delta("pcie.cable.0-1.rev.payload_bytes"), 0u);
  EXPECT_EQ(delta("pcie.cable.1-2.rev.payload_bytes"), 0u);
  // ...the PEARL ack returns the other way around the ring (2->3->0) as
  // header-only vendor messages: wire bytes but zero payload.
  EXPECT_GT(delta("pcie.cable.2-3.fwd.wire_bytes"), 0u);
  EXPECT_GT(delta("pcie.cable.3-0.fwd.wire_bytes"), 0u);
  EXPECT_EQ(delta("pcie.cable.2-3.fwd.payload_bytes"), 0u);
  EXPECT_EQ(delta("pcie.cable.3-0.fwd.payload_bytes"), 0u);

  // Fabric payload roll-up: the payload crossed exactly two cables.
  EXPECT_EQ(delta("fabric.payload_bytes"), 2 * kBytes);

  // Conservation at the endpoints: the destination host absorbed exactly
  // the bytes injected; the source host was read at least that much (the
  // descriptor fetch rides the same link).
  EXPECT_EQ(delta("node2.host.bytes_written"), kBytes);
  EXPECT_GE(delta("node0.host.bytes_read"), kBytes);
  EXPECT_EQ(delta("fabric.dma.bytes_written"), kBytes);
  EXPECT_EQ(delta("fabric.dma.errors"), 0u);
  EXPECT_EQ(delta("fabric.unroutable"), 0u);
}

TEST_F(Conservation, PioStoresBypassDmaCounters) {
  sim::Scheduler sched;
  auto rt = api::Runtime::create(sched, config());
  ASSERT_TRUE(rt.is_ok());
  api::Runtime& tca = rt.value();

  constexpr std::uint64_t kBytes = 256;  // <= PIO threshold
  auto src = tca.alloc_host(0, 4096).value();
  auto dst = tca.alloc_host(1, 4096).value();
  std::vector<std::byte> data(kBytes, std::byte{0x5a});
  tca.write(src, 0, data);

  MetricRegistry before;
  tca.export_metrics(before);
  auto t = tca.memcpy_peer(dst, 0, src, 0, kBytes);
  sched.run();
  ASSERT_TRUE(t.result().is_ok());
  MetricRegistry after;
  tca.export_metrics(after);
  auto delta = [&](std::string_view name) {
    return after.counter_value(name) - before.counter_value(name);
  };

  EXPECT_EQ(delta("node0.driver.pio_stores"), 1u);
  EXPECT_EQ(delta("node0.driver.pio_bytes"), kBytes);
  EXPECT_EQ(delta("fabric.dma.chains"), 0u);
  EXPECT_EQ(delta("pcie.cable.0-1.fwd.payload_bytes"), kBytes);
  EXPECT_EQ(delta("node1.host.bytes_written"), kBytes);
}

}  // namespace
}  // namespace tca::obs
