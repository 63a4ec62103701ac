// Unit tests for the PCIe substrate: TLP framing/overhead math, the link
// model (serialization timing, ordering, credit backpressure, surprise-down
// replay), and the read responders' completion splitting.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <vector>

#include "calib/calibration.h"
#include "common/units.h"
#include "gpu/gpu_device.h"
#include "memory/dram.h"
#include "node/root_complex.h"
#include "pcie/link.h"
#include "pcie/tlp.h"
#include "peach2/chip.h"
#include "peach2/registers.h"
#include "sim/scheduler.h"

namespace tca::pcie {
namespace {

using units::ns;
using units::us;

std::vector<std::byte> make_payload(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed + i) & 0xff);
  }
  return v;
}

TEST(Tlp, WriteWireBytesMatchPaperFormula) {
  auto payload = make_payload(256);
  Tlp tlp = Tlp::mem_write(0x1000, payload);
  // 256 payload + 16 header + 2 seq + 4 LCRC + 2 framing = 280 (the paper's
  // 256/280 efficiency term).
  EXPECT_EQ(tlp.wire_bytes(), 280u);
}

TEST(Tlp, ReadRequestIsHeaderOnly) {
  Tlp tlp = Tlp::mem_read(0x1000, 512, /*requester=*/3, /*tag=*/7);
  EXPECT_EQ(tlp.wire_bytes(), 24u);
  EXPECT_EQ(tlp.length, 512u);
  EXPECT_EQ(tlp.byte_count_remaining, 512u);
  EXPECT_TRUE(tlp.payload.empty());
}

TEST(Tlp, CompletionTracksRemainderAndOffset) {
  Tlp req = Tlp::mem_read(0x1000, 512, 3, 7);
  Tlp cpl1 = Tlp::completion(req, 256, /*byte_count_remaining=*/512);
  EXPECT_EQ(cpl1.address, 0x1000u);
  EXPECT_EQ(cpl1.tag, 7);
  EXPECT_EQ(cpl1.requester, 3);
  EXPECT_EQ(cpl1.payload.size(), 256u);  // sized for the responder to fill
  EXPECT_EQ(cpl1.wire_bytes(), calib::kTlpCompletionOverheadBytes + 256);
  Tlp cpl2 = Tlp::completion(req, 256, /*byte_count_remaining=*/256);
  EXPECT_EQ(cpl2.address, 0x1100u);  // second half of the read
}

TEST(Tlp, CompletionBuilderEnforcesMaxPayload) {
  Tlp req = Tlp::mem_read(0x1000, 512, 3, 7);
  EXPECT_DEATH((void)Tlp::completion(req, calib::kMaxPayloadBytes + 1, 512),
               "TCA_ASSERT failed");
  EXPECT_DEATH((void)Tlp::completion(req, 256, 128), "TCA_ASSERT failed");
}

TEST(Tlp, PayloadCopiesDeepAndMovesHandOver) {
  const auto bytes = make_payload(100, 3);
  Tlp a = Tlp::mem_write(0, bytes);
  Tlp copy = a;
  EXPECT_NE(copy.payload.data(), a.payload.data());
  EXPECT_EQ(copy.payload, bytes);
  const std::byte* buffer = a.payload.data();
  Tlp moved = std::move(a);
  EXPECT_EQ(moved.payload.data(), buffer);
  EXPECT_TRUE(a.payload.empty());  // NOLINT(bugprone-use-after-move)
  // Payloads above one TLP's worth still fit (hand-built TLPs in benches).
  moved.payload.assign(make_payload(4096, 5));
  EXPECT_EQ(moved.payload, make_payload(4096, 5));
  EXPECT_EQ(moved.wire_bytes(), calib::kTlpWithDataOverheadBytes + 4096);
}

TEST(Tlp, PooledPayloadUseAfterReleaseIsReported) {
#if defined(__SANITIZE_ADDRESS__)
  Payload payload;
  payload.assign(make_payload(64));
  const volatile std::byte* stale = payload.data();
  payload.reset();  // the buffer is back in the pool
  EXPECT_DEATH((void)*stale, "use-after-poison");
#else
  GTEST_SKIP() << "pooled buffers are poisoned only under AddressSanitizer";
#endif
}

TEST(Tlp, VendorMsgRoutesByAddress) {
  Tlp msg = Tlp::vendor_msg(0xdead000, 9, 1);
  EXPECT_EQ(msg.type, TlpType::kVendorMsg);
  EXPECT_EQ(msg.wire_bytes(), 24u);
}

TEST(Tlp, ChunkingHonorsMaxPayload) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> chunks;
  for_each_payload_chunk(0x100, 600, 256, [&](std::uint64_t off,
                                              std::uint32_t len) {
    chunks.emplace_back(off, len);
  });
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0], std::make_pair(std::uint64_t{0x100}, 256u));
  EXPECT_EQ(chunks[1], std::make_pair(std::uint64_t{0x200}, 256u));
  EXPECT_EQ(chunks[2], std::make_pair(std::uint64_t{0x300}, 88u));
}

TEST(LinkConfig, Gen2x8Is4GBs) {
  LinkConfig cfg{.gen = 2, .lanes = 8};
  EXPECT_DOUBLE_EQ(cfg.raw_bytes_per_sec(), 4e9);
  EXPECT_DOUBLE_EQ(cfg.ps_per_byte(), 250.0);
  // A full 280-byte TLP takes 70 ns.
  EXPECT_EQ(cfg.serialize_ps(280), ns(70));
}

TEST(LinkConfig, OtherGenerations) {
  EXPECT_DOUBLE_EQ((LinkConfig{.gen = 1, .lanes = 4}).raw_bytes_per_sec(),
                   1e9);
  EXPECT_DOUBLE_EQ((LinkConfig{.gen = 2, .lanes = 16}).raw_bytes_per_sec(),
                   8e9);
  EXPECT_NEAR((LinkConfig{.gen = 3, .lanes = 8}).raw_bytes_per_sec(), 7.877e9,
              0.01e9);
}

/// Test sink recording TLPs and optionally holding credits.
class RecordingSink : public TlpSink {
 public:
  explicit RecordingSink(sim::Scheduler& sched, bool auto_release = true)
      : sched_(sched), auto_release_(auto_release) {}

  void on_tlp(Tlp tlp, LinkPort& port) override {
    arrival_times.push_back(sched_.now());
    received.push_back(std::move(tlp));
    if (auto_release_) {
      port.release_rx(received.back().wire_bytes());
    } else {
      held_.push_back(&port);
    }
  }

  void release_one() {
    ASSERT_FALSE(held_.empty());
    LinkPort* port = held_.front();
    held_.erase(held_.begin());
    port->release_rx(received[released_++].wire_bytes());
  }

  std::vector<Tlp> received;
  std::vector<TimePs> arrival_times;

 private:
  sim::Scheduler& sched_;
  bool auto_release_;
  std::vector<LinkPort*> held_;
  std::size_t released_ = 0;
};

TEST(Link, DeliversPayloadIntact) {
  sim::Scheduler sched;
  PcieLink link(sched, {.gen = 2, .lanes = 8});
  RecordingSink sink(sched);
  link.end_b().set_sink(&sink);

  auto payload = make_payload(128, 42);
  link.end_a().send(Tlp::mem_write(0xabc0, payload));
  sched.run();

  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].address, 0xabc0u);
  EXPECT_EQ(sink.received[0].payload, payload);
}

TEST(Link, SerializationTimeMatchesWireBytes) {
  sim::Scheduler sched;
  PcieLink link(sched, {.gen = 2, .lanes = 8});
  RecordingSink sink(sched);
  link.end_b().set_sink(&sink);

  link.end_a().send(Tlp::mem_write(0, make_payload(256)));
  sched.run();
  ASSERT_EQ(sink.arrival_times.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], ns(70));  // 280 B at 250 ps/B
}

TEST(Link, PropagationDelayAdds) {
  sim::Scheduler sched;
  PcieLink link(sched, {.gen = 2, .lanes = 8, .propagation_ps = ns(25)});
  RecordingSink sink(sched);
  link.end_b().set_sink(&sink);
  link.end_a().send(Tlp::mem_write(0, make_payload(256)));
  sched.run();
  EXPECT_EQ(sink.arrival_times.at(0), ns(95));
}

TEST(Link, BackToBackTlpsPipelineAtLineRate) {
  sim::Scheduler sched;
  PcieLink link(sched, {.gen = 2, .lanes = 8});
  RecordingSink sink(sched);
  link.end_b().set_sink(&sink);

  for (int i = 0; i < 4; ++i) {
    link.end_a().send(Tlp::mem_write(static_cast<std::uint64_t>(i) * 256,
                                     make_payload(256)));
  }
  sched.run();
  ASSERT_EQ(sink.arrival_times.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.arrival_times[static_cast<std::size_t>(i)],
              ns(70) * (i + 1));
  }
}

TEST(Link, FullDuplexDirectionsIndependent) {
  sim::Scheduler sched;
  PcieLink link(sched, {.gen = 2, .lanes = 8});
  RecordingSink sink_a(sched), sink_b(sched);
  link.end_a().set_sink(&sink_a);
  link.end_b().set_sink(&sink_b);

  link.end_a().send(Tlp::mem_write(0, make_payload(256)));
  link.end_b().send(Tlp::mem_write(0, make_payload(256)));
  sched.run();
  // Both arrive at 70 ns: no shared-medium contention.
  EXPECT_EQ(sink_a.arrival_times.at(0), ns(70));
  EXPECT_EQ(sink_b.arrival_times.at(0), ns(70));
}

TEST(Link, CreditExhaustionStallsSender) {
  sim::Scheduler sched;
  // Rx buffer fits exactly two 280-byte TLPs.
  PcieLink link(sched, {.gen = 2, .lanes = 8, .rx_buffer_bytes = 560});
  RecordingSink sink(sched, /*auto_release=*/false);
  link.end_b().set_sink(&sink);

  for (int i = 0; i < 3; ++i) {
    link.end_a().send(Tlp::mem_write(0, make_payload(256)));
  }
  sched.run();
  // Third TLP blocked: receiver holds credits.
  EXPECT_EQ(sink.received.size(), 2u);

  sink.release_one();
  sched.run();
  EXPECT_EQ(sink.received.size(), 3u);
}

TEST(Link, TxQueueBoundedAndReadyCallbackFires) {
  sim::Scheduler sched;
  PcieLink link(sched,
                {.gen = 2, .lanes = 8, .tx_queue_bytes = 600});
  RecordingSink sink(sched);
  link.end_b().set_sink(&sink);

  Tlp t1 = Tlp::mem_write(0, make_payload(256));
  Tlp t2 = Tlp::mem_write(0, make_payload(256));
  Tlp t3 = Tlp::mem_write(0, make_payload(256));
  ASSERT_TRUE(link.end_a().can_send(t1));
  link.end_a().send(std::move(t1));
  // First TLP starts transmitting immediately (leaves the queue), so there
  // is room for two more queued.
  ASSERT_TRUE(link.end_a().can_send(t2));
  link.end_a().send(std::move(t2));
  ASSERT_TRUE(link.end_a().can_send(t3));
  link.end_a().send(std::move(t3));
  EXPECT_FALSE(link.end_a().can_send(Tlp::mem_write(0, make_payload(256))));

  int ready_calls = 0;
  link.end_a().set_tx_ready([&] { ++ready_calls; });
  sched.run();
  EXPECT_GT(ready_calls, 0);
  EXPECT_EQ(sink.received.size(), 3u);
}

TEST(Link, StatsCountWireAndPayloadBytes) {
  sim::Scheduler sched;
  PcieLink link(sched, {.gen = 2, .lanes = 8});
  RecordingSink sink(sched);
  link.end_b().set_sink(&sink);
  link.end_a().send(Tlp::mem_write(0, make_payload(256)));
  link.end_a().send(Tlp::mem_read(0, 256, 1, 0));
  sched.run();
  EXPECT_EQ(link.end_a().tlps_sent(), 2u);
  EXPECT_EQ(link.end_a().wire_bytes_sent(), 280u + 24u);
  EXPECT_EQ(link.end_a().payload_bytes_sent(), 256u);
}

TEST(Link, ReplayRecoversCorruptedTlpsInOrder) {
  // The "Reliable" in PEARL: LCRC failures trigger replay, never loss or
  // reorder. Deterministic (seeded) error process.
  sim::Scheduler sched;
  PcieLink link(sched, {.gen = 2,
                        .lanes = 8,
                        .bit_error_rate = 1e-5,  // ~2% per 280 B TLP
                        .error_seed = 77});
  RecordingSink sink(sched);
  link.end_b().set_sink(&sink);

  std::vector<Tlp> sent;
  for (int i = 0; i < 200; ++i) {
    sent.push_back(Tlp::mem_write(static_cast<std::uint64_t>(i) * 0x100,
                                  make_payload(256, static_cast<std::uint8_t>(i))));
  }
  std::size_t next = 0;
  std::function<void()> pump = [&] {
    while (next < sent.size() && link.end_a().can_send(sent[next])) {
      Tlp copy = sent[next];
      link.end_a().send(std::move(copy));
      ++next;
    }
  };
  link.end_a().set_tx_ready(pump);
  pump();
  sched.run();

  EXPECT_GT(link.end_a().replays(), 0u);
  ASSERT_EQ(sink.received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(sink.received[i].address, sent[i].address) << i;
    EXPECT_EQ(sink.received[i].payload, sent[i].payload) << i;
  }
}

TEST(Link, ZeroBerMeansZeroReplays) {
  sim::Scheduler sched;
  PcieLink link(sched, {.gen = 2, .lanes = 8});
  RecordingSink sink(sched);
  link.end_b().set_sink(&sink);
  for (int i = 0; i < 50; ++i) {
    link.end_a().send(Tlp::mem_write(0, make_payload(64)));
    sched.run();
  }
  EXPECT_EQ(link.end_a().replays(), 0u);
}

TEST(Link, ReplaysCostTimeButNotData) {
  auto run = [](double ber) {
    sim::Scheduler sched;
    PcieLink link(sched,
                  {.gen = 2, .lanes = 8, .bit_error_rate = ber,
                   .error_seed = 123});
    RecordingSink sink(sched);
    link.end_b().set_sink(&sink);
    std::size_t bytes = 0;
    std::size_t next = 0;
    std::function<void()> pump = [&] {
      while (next < 500) {
        Tlp tlp = Tlp::mem_write(0, make_payload(256));
        if (!link.end_a().can_send(tlp)) return;
        link.end_a().send(std::move(tlp));
        ++next;
      }
    };
    link.end_a().set_tx_ready(pump);
    pump();
    sched.run();
    (void)bytes;
    return std::pair(sched.now(), sink.received.size());
  };
  const auto [clean_time, clean_count] = run(0);
  const auto [noisy_time, noisy_count] = run(1e-5);
  EXPECT_EQ(clean_count, noisy_count);
  EXPECT_GT(noisy_time, clean_time);
}

TEST(Link, SustainedThroughputMatchesPaperPeak) {
  sim::Scheduler sched;
  PcieLink link(sched, {.gen = 2, .lanes = 8});
  RecordingSink sink(sched);
  link.end_b().set_sink(&sink);

  // Feed 1 MiB in max-payload TLPs through a feeder loop.
  constexpr std::uint64_t kTotal = 1 << 20;
  std::uint64_t sent = 0;
  std::function<void()> pump = [&] {
    while (sent < kTotal) {
      Tlp t = Tlp::mem_write(sent, make_payload(calib::kMaxPayloadBytes));
      if (!link.end_a().can_send(t)) return;
      link.end_a().send(std::move(t));
      sent += calib::kMaxPayloadBytes;
    }
  };
  link.end_a().set_tx_ready(pump);
  pump();
  sched.run();

  const double gbps = units::gbytes_per_second(kTotal, sched.now());
  EXPECT_NEAR(gbps, 3.657, 0.02);  // the paper's theoretical peak
}

TEST(Link, SurpriseDownOnWrappedQueueRetransmitsInOrder) {
  // A long stream keeps the transmit and in-flight rings wrapping around
  // their storage; the cut lands mid-stream with TLPs on the wire, which
  // return to the head of the transmit queue and go out again, in their
  // original order and exactly once, after retrain.
  sim::Scheduler sched;
  PcieLink link(sched, {.gen = 2, .lanes = 8, .propagation_ps = us(1)});
  RecordingSink sink(sched);
  link.end_b().set_sink(&sink);

  constexpr int kTlps = 400;
  int next = 0;
  std::function<void()> pump = [&] {
    while (next < kTlps) {
      Tlp tlp = Tlp::mem_write(static_cast<std::uint64_t>(next) * 0x100,
                               make_payload(256, static_cast<std::uint8_t>(next)));
      if (!link.end_a().can_send(tlp)) return;
      link.end_a().send(std::move(tlp));
      ++next;
    }
  };
  link.end_a().set_tx_ready(pump);
  pump();
  sched.schedule_at(us(9), [&] { link.set_up(false); });
  sched.schedule_at(us(12), [&] { link.set_up(true); });
  sched.run();

  EXPECT_GT(link.end_a().dropped_tlps(), 1u);
  ASSERT_EQ(sink.received.size(), static_cast<std::size_t>(kTlps));
  for (int i = 0; i < kTlps; ++i) {
    const Tlp& t = sink.received[static_cast<std::size_t>(i)];
    EXPECT_EQ(t.address, static_cast<std::uint64_t>(i) * 0x100) << i;
    EXPECT_EQ(t.payload, make_payload(256, static_cast<std::uint8_t>(i))) << i;
  }
}

// --- Read responders ---------------------------------------------------------

/// Checks that `cpls` answer one read of `data.size()` bytes at `address`
/// with completions of at most kMaxPayloadBytes, in order, carrying `data`.
void expect_split_completions(const std::vector<Tlp>& cpls,
                              std::uint64_t address,
                              const std::vector<std::byte>& data) {
  const std::size_t expected =
      (data.size() + calib::kMaxPayloadBytes - 1) / calib::kMaxPayloadBytes;
  ASSERT_EQ(cpls.size(), expected);
  std::vector<std::byte> joined;
  auto remaining = static_cast<std::uint32_t>(data.size());
  for (const Tlp& cpl : cpls) {
    EXPECT_EQ(cpl.type, TlpType::kCompletion);
    EXPECT_LE(cpl.payload.size(), calib::kMaxPayloadBytes);
    EXPECT_EQ(cpl.length, cpl.payload.size());
    EXPECT_EQ(cpl.byte_count_remaining, remaining);
    EXPECT_EQ(cpl.address, address + (data.size() - remaining));
    joined.insert(joined.end(), cpl.payload.begin(), cpl.payload.end());
    remaining -= static_cast<std::uint32_t>(cpl.payload.size());
  }
  EXPECT_EQ(joined, data);
}

TEST(Responders, SplitReadsIntoMaxPayloadCompletions) {
  constexpr std::uint32_t kRead = 2 * calib::kMaxPayloadBytes;
  const auto data = make_payload(kRead, 9);
  sim::Scheduler sched;

  // Host DRAM behind the root complex, read by a downstream device.
  mem::Dram dram(1 << 20);
  dram.write(0x200, data);
  node::RootComplex rc(sched, 0, dram, /*host_base=*/0, /*cpu_id=*/1);
  PcieLink rc_link(sched, {.gen = 2, .lanes = 8});
  RecordingSink device(sched);
  rc_link.end_b().set_sink(&device);
  ASSERT_TRUE(rc.attach_device(7, rc_link.end_a(), {}).is_ok());
  rc_link.end_b().send(Tlp::mem_read(0x200, kRead, 7, 1));

  // GPU BAR1 read.
  gpu::GpuDevice gpu(sched, 8,
                     {.memory_bytes = 1 << 20, .bar1_base = 0x1000'0000});
  PcieLink gpu_link(sched, {.gen = 2, .lanes = 8});
  RecordingSink gpu_reader(sched);
  gpu.attach(gpu_link.end_b());
  gpu_link.end_a().set_sink(&gpu_reader);
  const gpu::DevPtr dev = gpu.mem_alloc(64 << 10).value();
  const std::uint64_t bar =
      gpu.pin_pages(gpu.get_p2p_token(dev).value(), dev, 64 << 10).value();
  gpu.poke(dev, data);
  gpu_link.end_a().send(Tlp::mem_read(bar, kRead, 2, 2));

  // PEACH2 internal RAM and register file, read from the host port.
  const auto layout =
      peach2::TcaLayout::create(1ull << 40, 1ull << 39, 4).value();
  peach2::Peach2Chip chip(sched, {.device_id = 42,
                                  .node_id = 0,
                                  .layout = layout,
                                  .reg_base = 0x30'0000'0000ull});
  PcieLink north(sched, {.gen = 2, .lanes = 8});
  RecordingSink host(sched);
  chip.attach_port(peach2::PortId::kNorth, north.end_a());
  north.end_b().set_sink(&host);
  chip.internal_ram().write(0x100, data);
  const std::uint64_t ram = chip.internal_block_base() +
                            peach2::Peach2Chip::kInternalRamOffset + 0x100;
  north.end_b().send(Tlp::mem_read(ram, kRead, 3, 3));
  sched.run();
  std::vector<Tlp> ram_cpls = std::move(host.received);
  host.received.clear();
  // Registers are 64-bit: the largest read they answer is one 8-B CplD.
  const std::uint64_t reg = 0x30'0000'0000ull + peach2::regs::kChipId;
  north.end_b().send(Tlp::mem_read(reg, 8, 3, 4));
  sched.run();

  expect_split_completions(device.received, 0x200, data);
  expect_split_completions(gpu_reader.received, bar, data);
  expect_split_completions(ram_cpls, ram, data);
  std::vector<std::byte> chip_id(8);
  std::memcpy(chip_id.data(), &peach2::regs::kChipIdValue, 8);
  expect_split_completions(host.received, reg, chip_id);
}

}  // namespace
}  // namespace tca::pcie
