// tca::workload tests: every workload runs and verifies byte for byte on a
// ring and a torus, with host and GPU buffers; a byte corrupted after the
// run makes verify name its rank and byte, so the verifier is not vacuous;
// setup rejects sizes a workload cannot run; and the workload names
// round-trip through parse/to_string.
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "api/tca.h"
#include "coll/communicator.h"
#include "fabric/topology.h"
#include "sim/scheduler.h"

namespace tca::workload {
namespace {

using fabric::TopologySpec;

constexpr std::uint64_t kBytes = 4096;

/// One fabric, with the chaos engine's sizes and communicator shape (4 KiB
/// segments, two staging slots).
struct Fabric {
  sim::Scheduler sched;
  api::Runtime rt;

  explicit Fabric(const TopologySpec& topo)
      : rt(sched, {.spec = topo,
                   .node_config = {.gpu_count = 1,
                                   .host_backing_bytes = 3ull << 20,
                                   .gpu_backing_bytes = 256ull << 10}}) {}

  Result<Workload> setup(Kind kind, Placement where, std::uint64_t bytes) {
    return Workload::setup(
        rt, kind, where, bytes, /*seed=*/7,
        coll::CollConfig{.pipeline_seg_bytes = 4096, .staging_slots = 2});
  }
};

TEST(Workload, EveryKindVerifiesOnRingAndTorus) {
  for (const TopologySpec& topo :
       {TopologySpec::ring(8), TopologySpec::torus({4, 4})}) {
    for (const Placement where : {Placement::kHost, Placement::kGpu0}) {
      for (const Kind kind : kAllKinds) {
        SCOPED_TRACE(topo.to_string() + " " + to_string(kind) +
                     (where == Placement::kHost ? " host" : " gpu"));
        Fabric f(topo);
        auto work = f.setup(kind, where, kBytes);
        ASSERT_TRUE(work.is_ok()) << work.status().to_string();
        work.value().spawn();
        f.sched.run();
        ASSERT_FALSE(work.value().slots().empty());
        for (const OpSlot& slot : work.value().slots()) {
          EXPECT_TRUE(slot.done) << "rank " << slot.rank;
          EXPECT_TRUE(slot.status.is_ok())
              << "rank " << slot.rank << ": " << slot.status.to_string();
        }
        const Status st = work.value().verify();
        EXPECT_TRUE(st.is_ok()) << st.to_string();
      }
    }
  }
}

TEST(Workload, VerifyNamesTheCorruptedRankAndByte) {
  const std::uint32_t n = 8;
  const std::uint32_t rank = 3;
  struct Case {
    Kind kind;
    const char* what;    // the part verify reports
    std::size_t buffer;  // index into buffers()
    std::uint64_t byte;  // a received byte of that buffer
  };
  const Case cases[] = {
      {Kind::kAllreduce, "allreduce", rank, 17},
      {Kind::kHalo, "halo", rank, 5},                       // recv_from_prev
      {Kind::kHalo, "halo", rank, 3 * kBytes + 9},          // recv_from_next
      {Kind::kPingPong, "pingpong", rank, 2 * kBytes + 5},  // recv_fwd
      {Kind::kMixed, "pingpong", n + rank,
       3 * Workload::kMixedPingpongBytes + 1},  // recv_rev
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(to_string(c.kind));
    Fabric f(TopologySpec::ring(n));
    auto work = f.setup(c.kind, Placement::kHost, kBytes);
    ASSERT_TRUE(work.is_ok()) << work.status().to_string();
    work.value().spawn();
    f.sched.run();
    ASSERT_TRUE(work.value().verify().is_ok());

    const api::Buffer& buf = work.value().buffers().at(c.buffer);
    std::byte b[1];
    f.rt.read(buf, c.byte, b);
    b[0] ^= std::byte{0x5a};
    f.rt.write(buf, c.byte, b);

    const Status st = work.value().verify();
    ASSERT_FALSE(st.is_ok());
    EXPECT_NE(st.message().find(std::string(c.what) + " rank " +
                                std::to_string(rank) + " byte " +
                                std::to_string(c.byte) + " "),
              std::string::npos)
        << st.message();
  }
}

TEST(Workload, SetupRejectsSizesItCannotRun) {
  Fabric f(TopologySpec::ring(8));
  // Fewer doubles than ranks, and nothing at all.
  EXPECT_FALSE(f.setup(Kind::kAllreduce, Placement::kHost, 63).is_ok());
  EXPECT_FALSE(f.setup(Kind::kAllreduce, Placement::kHost, 0).is_ok());
  // More than the GPU holds comes back as a Status, not an abort.
  EXPECT_FALSE(
      f.setup(Kind::kAllreduce, Placement::kGpu0, 1ull << 40).is_ok());
  // A halo row must fit one staging slot; a slab must not overflow.
  EXPECT_FALSE(f.setup(Kind::kHalo, Placement::kHost, 4097).is_ok());
  EXPECT_FALSE(f.setup(Kind::kPingPong, Placement::kHost, ~0ull).is_ok());
}

TEST(Workload, NamesRoundTripAndRejectUnknown) {
  for (const Kind kind : kAllKinds) {
    auto parsed = parse(to_string(kind));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value(), kind);
  }
  for (const char* bad : {"", "sorting", "Allreduce", "halo ", "ping-pong"}) {
    const auto parsed = parse(bad);
    EXPECT_FALSE(parsed.is_ok()) << bad;
    EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace tca::workload
