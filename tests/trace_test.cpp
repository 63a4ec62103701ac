// Tests for the trace subsystem: zero-cost when disabled, event capture
// when enabled, and chrome://tracing JSON structure.
#include <gtest/gtest.h>

#include "common/trace.h"
#include "fabric/sub_cluster.h"

namespace tca {
namespace {

using fabric::SubCluster;
using fabric::SubClusterConfig;
using peach2::DmaDescriptor;
using peach2::DmaDirection;

/// The recorder is process-global; each test starts from a clean slate.
struct TraceGuard {
  TraceGuard() {
    Trace::instance().clear();
    Trace::instance().enable();
  }
  ~TraceGuard() {
    Trace::instance().disable();
    Trace::instance().clear();
  }
};

TEST(Trace, DisabledByDefaultRecordsNothing) {
  Trace::instance().clear();
  ASSERT_FALSE(Trace::instance().enabled());
  Trace::instance().duration("t", "x", 0, 100);
  Trace::instance().instant("t", "y", 50);
  EXPECT_EQ(Trace::instance().event_count(), 0u);
}

TEST(Trace, RecordsAllEventKinds) {
  TraceGuard guard;
  Trace::instance().duration("track-a", "span", units::ns(10),
                             units::ns(20));
  Trace::instance().instant("track-a", "tick", units::ns(15));
  Trace::instance().counter("track-b", "queue", units::ns(15), 3.0);
  EXPECT_EQ(Trace::instance().event_count(), 3u);

  const std::string json = Trace::instance().to_json();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("track-a"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Trace, EscapesQuotesInNames) {
  TraceGuard guard;
  Trace::instance().instant("t", "say \"hi\"", 0);
  const std::string json = Trace::instance().to_json();
  EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
}

TEST(Trace, DmaChainProducesSpans) {
  TraceGuard guard;
  sim::Scheduler sched;
  SubCluster tca(sched, SubClusterConfig{
                            .spec = fabric::TopologySpec::ring(2),
                            .node_config = {.gpu_count = 2,
                                            .host_backing_bytes = 8 << 20,
                                            .gpu_backing_bytes = 4 << 20}});
  auto t = tca.driver(0).run_chain(
      {DmaDescriptor{.src = tca.driver(0).internal_global(0),
                     .dst = tca.global_host(1, 0),
                     .length = 4096,
                     .direction = DmaDirection::kWrite}});
  sched.run();

  EXPECT_GT(Trace::instance().event_count(), 10u);  // TLPs + spans
  const std::string json = Trace::instance().to_json();
  EXPECT_NE(json.find("dmac/node0"), std::string::npos);
  EXPECT_NE(json.find("driver/node0"), std::string::npos);
  EXPECT_NE(json.find("cable/0-1"), std::string::npos);
  EXPECT_NE(json.find("slot0/node0"), std::string::npos);
  EXPECT_NE(json.find("interrupt"), std::string::npos);
}

TEST(Trace, WriteJsonRoundTrips) {
  TraceGuard guard;
  Trace::instance().duration("t", "x", 0, units::ns(5));
  const std::string path = ::testing::TempDir() + "/tcasim_trace.json";
  ASSERT_TRUE(Trace::instance().write_json(path).is_ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  const std::size_t n = std::fread(content.data(), 1, content.size(), f);
  std::fclose(f);
  content.resize(n);
  EXPECT_EQ(content, Trace::instance().to_json());
}

TEST(Trace, TracingDoesNotPerturbTiming) {
  auto measure = [](bool traced) {
    Trace::instance().clear();
    if (traced) {
      Trace::instance().enable();
    } else {
      Trace::instance().disable();
    }
    sim::Scheduler sched;
    SubCluster tca(sched, SubClusterConfig{
                              .spec = fabric::TopologySpec::ring(2),
                              .node_config = {.gpu_count = 2,
                                              .host_backing_bytes = 8 << 20,
                                              .gpu_backing_bytes = 4 << 20}});
    auto t = tca.driver(0).run_chain(
        {DmaDescriptor{.src = tca.driver(0).internal_global(0),
                       .dst = tca.global_host(1, 0),
                       .length = 16384,
                       .direction = DmaDirection::kWrite}});
    sched.run();
    Trace::instance().disable();
    Trace::instance().clear();
    return t.result().elapsed;
  };
  EXPECT_EQ(measure(false), measure(true));
}

}  // namespace
}  // namespace tca
