// Section IV-B1 reproduction (Fig. 10 configuration): PIO transfer latency
// between adjacent PEACH2 chips.
//
// The paper attaches TWO PEACH2 boards to a single node so one TSC measures
// the whole path: CPU store -> board A -> external cable -> board B ->
// write into host memory -> polling CPU detects the change. Result:
// "the transfer latency is 782 nsec", comparable to InfiniBand FDR's
// sub-microsecond adapter latency — without any protocol stack.
//
// We reproduce the exact loopback rig, and additionally measure the same
// store across a true 2-node sub-cluster (possible in simulation because
// the clock is global).
#include <memory>

#include "bench/bench_util.h"
#include "common/stats.h"

using namespace tca;
using peach2::Peach2Chip;
using peach2::Peach2Config;
using peach2::PortId;
using peach2::RouteEntry;
using peach2::TcaLayout;

namespace {

/// The Fig. 10 rig: one node, two boards, cabled E0->W1 and E1->W0.
struct LoopbackRig {
  explicit LoopbackRig(sim::Scheduler& sched)
      : node(sched, 0,
             node::NodeConfig{.gpu_count = 2,
                              .host_backing_bytes = 32 << 20,
                              .gpu_backing_bytes = 4 << 20}) {
    auto layout = TcaLayout::create(calib::kTcaWindowBase,
                                    calib::kTcaWindowBytes, 2).value();
    for (std::uint32_t b = 0; b < 2; ++b) {
      Peach2Config cfg{
          .device_id = static_cast<pcie::DeviceId>(8 + b),
          .node_id = b,  // board B pretends to be "node 1"
          .layout = layout,
          .reg_base = node::layout::kPeach2RegBase +
                      b * node::layout::kPeach2RegSize,
          .local_gpu0_base = node::layout::gpu_bar_base(0),
          .local_gpu1_base = node::layout::gpu_bar_base(1),
          .local_host_base = node::layout::kHostBase,
      };
      chips[b] = std::make_unique<Peach2Chip>(sched, cfg);
      chips[b]->attach_port(
          PortId::kNorth,
          node.attach_peach2_slot(cfg.device_id, cfg.reg_base,
                                  /*claim_tca_window=*/b == 0));
    }
    // External cables both directions (a 2-"node" ring).
    pcie::LinkConfig cable{.gen = 2,
                           .lanes = 8,
                           .propagation_ps = calib::kCableLatencyPs,
                           .tx_queue_bytes = calib::kPeach2LinkTxQueueBytes};
    cable_a = std::make_unique<pcie::PcieLink>(sched, cable);
    cable_b = std::make_unique<pcie::PcieLink>(sched, cable);
    chips[0]->attach_port(PortId::kEast, cable_a->end_a());
    chips[1]->attach_port(PortId::kWest, cable_a->end_b());
    chips[1]->attach_port(PortId::kEast, cable_b->end_a());
    chips[0]->attach_port(PortId::kWest, cable_b->end_b());
    // Routing: each board forwards the other slice over East.
    const std::uint64_t slice = layout.slice_size();
    TCA_ASSERT(chips[0]->routing()
                   .add(RouteEntry{.mask = ~(slice - 1),
                                   .lower = layout.slice_base(1),
                                   .upper = layout.slice_base(1),
                                   .port = PortId::kEast})
                   .is_ok());
    TCA_ASSERT(chips[1]->routing()
                   .add(RouteEntry{.mask = ~(slice - 1),
                                   .lower = layout.slice_base(0),
                                   .upper = layout.slice_base(0),
                                   .port = PortId::kEast})
                   .is_ok());
    layout_ = layout;
  }

  node::ComputeNode node;
  std::array<std::unique_ptr<Peach2Chip>, 2> chips;
  std::unique_ptr<pcie::PcieLink> cable_a, cable_b;
  TcaLayout layout_;
};

/// One latency probe, exactly the paper's steps 2-6.
TimePs measure_loopback(sim::Scheduler& sched, LoopbackRig& rig,
                        std::uint32_t probe_value) {
  const std::uint64_t poll_offset = 0x100;
  std::uint32_t zero = 0;
  rig.node.cpu().write_host(poll_offset, std::as_bytes(std::span(&zero, 1)));
  auto poll = rig.node.cpu().poll_host_until_change(poll_offset, 0);

  // Step 2: "Read the clock counter in the PEACH2-A driver."
  const TimePs t0 = sched.now();
  // Step 3: "Store 4-byte data into the region assigned to PEACH2-B within
  // the PCIe address space of PEACH2-A."
  std::array<std::byte, 4> data;
  std::memcpy(data.data(), &probe_value, 4);
  auto store = rig.node.cpu().mmio_store(
      rig.layout_.encode(1, peach2::TcaTarget::kHost, poll_offset), data);
  // Steps 4-6 happen in hardware; the poll task reads the clock on change.
  sched.run();
  return poll.result() - t0;
}

}  // namespace

int main() {
  bench::ShapeCheck check;

  // --- Loopback (the paper's measurement) -----------------------------------
  sim::Scheduler sched;
  LoopbackRig rig(sched);
  SampleSeries samples;
  for (std::uint32_t i = 1; i <= 16; ++i) {
    samples.add_time(measure_loopback(sched, rig, i));
  }
  const double loopback_ns = units::to_ns(static_cast<TimePs>(
      samples.median()));

  // --- Across a real 2-node sub-cluster -------------------------------------
  bench::DmaRig cluster_rig;
  auto& tca = cluster_rig.cluster;
  std::uint32_t zero = 0;
  tca.node(1).cpu().write_host(0x100, std::as_bytes(std::span(&zero, 1)));
  auto poll = tca.node(1).cpu().poll_host_until_change(0x100, 0);
  const TimePs t0 = cluster_rig.sched.now();
  auto store = tca.driver(0).pio_store_u32(tca.global_host(1, 0x100), 7);
  cluster_rig.sched.run();
  const double internode_ns = units::to_ns(poll.result() - t0);

  TablePrinter table({"Path", "Latency", "Note"});
  table.add_row({"PEACH2 loopback (two boards, one node)",
                 TablePrinter::cell(loopback_ns, 0) + " ns",
                 "paper: 782 ns"});
  table.add_row({"PEACH2 node-to-node (2-node ring)",
                 TablePrinter::cell(internode_ns, 0) + " ns",
                 "same path, global clock"});
  table.add_row({"InfiniBand adapter (verbs, reference)",
                 TablePrinter::cell(units::to_ns(calib::kIbRawLatencyPs), 0) +
                     " ns",
                 "paper: IB FDR < 1 usec"});
  table.add_row({"MPI over IB (eager, reference)",
                 TablePrinter::cell(
                     units::to_ns(calib::kIbMpiEagerLatencyPs), 0) +
                     " ns",
                 "the stack TCA bypasses"});

  print_section("Section IV-B1 / Fig. 10: PIO latency between PEACH2 chips");
  table.print();

  check.expect_near(loopback_ns, 782.0, 25.0,
                    "loopback PIO latency matches the paper's 782 ns");
  check.expect_near(internode_ns, loopback_ns, 30.0,
                    "node-to-node latency equals the loopback measurement");
  check.expect(loopback_ns < 1000.0,
               "PEACH2 latency is at or below InfiniBand's ~1 us");
  return check.finish();
}
