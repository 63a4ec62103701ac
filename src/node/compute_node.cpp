#include "node/compute_node.h"

namespace tca::node {

namespace {

pcie::LinkConfig qpi_config(int node) {
  // Models the *observed* peer-to-peer path over QPI: "the performance of
  // DMA write access to the GPU on another socket over QPI is severely
  // degraded by up to several hundred Mbytes/sec" (Section IV-A2).
  return {.gen = 2,
          .lanes = 8,
          .propagation_ps = calib::kQpiExtraLatencyPs,
          .custom_bytes_per_sec = calib::kQpiPeerBytesPerSec,
          .name = "qpi/node" + std::to_string(node)};
}

pcie::LinkConfig gpu_link_config(int node, int gpu) {
  return {.gen = 2,  // K20: PCIe Gen2 x16
          .lanes = 16,
          // The BAR1 write queue ("sufficient size for the request queue",
          // Fig. 12 discussion) is the link-level receive buffer here.
          .rx_buffer_bytes = calib::kGpuWriteQueueDepth *
                             (calib::kMaxPayloadBytes +
                              calib::kTlpWithDataOverheadBytes),
          .name = "gpu" + std::to_string(gpu) + "/node" +
                  std::to_string(node)};
}

}  // namespace

ComputeNode::ComputeNode(sim::Scheduler& sched, int node_index,
                         const NodeConfig& config)
    : sched_(sched),
      index_(node_index),
      cfg_(config),
      bios_(config.board),
      host_dram_(config.host_backing_bytes),
      rc0_(sched, 0, host_dram_, layout::kHostBase, make_id(1)),
      rc1_(sched, 1, host_dram_, layout::kHostBase, make_id(1)),
      qpi_link_(sched, qpi_config(node_index)),
      cpu_(sched, rc0_, host_dram_, layout::kHostBase) {
  rc0_.connect_qpi(qpi_link_.end_a());
  rc1_.connect_qpi(qpi_link_.end_b());

  TCA_ASSERT(config.gpu_count >= 0 && config.gpu_count <= 4);
  for (int i = 0; i < config.gpu_count; ++i) {
    const Status bar = bios_.claim_bar(config.gpu_backing_bytes);
    TCA_ASSERT(bar.is_ok() && "firmware cannot map the GPU BAR1 aperture");
    gpu::GpuConfig gcfg{
        .memory_bytes = config.gpu_backing_bytes,
        .bar1_base = layout::gpu_bar_base(i),
        .socket = i < 2 ? 0 : 1,  // Fig. 2: GPU0/1 on socket 0, GPU2/3 on 1
    };
    auto& link = gpu_links_.emplace_back(
        std::make_unique<pcie::PcieLink>(sched, gpu_link_config(node_index, i)));
    auto& dev = gpus_.emplace_back(std::make_unique<gpu::GpuDevice>(
        sched, make_id(2 + i), gcfg));
    dev->attach(link->end_b());
    const Status st = socket(gcfg.socket)
                          .attach_device(dev->id(), link->end_a(),
                                         {{gcfg.bar1_base, gcfg.memory_bytes}});
    TCA_ASSERT(st.is_ok());
  }
}

pcie::LinkPort& ComputeNode::attach_peach2_slot(pcie::DeviceId device_id,
                                                std::uint64_t reg_base,
                                                bool claim_tca_window) {
  auto port = try_attach_peach2_slot(device_id, reg_base, claim_tca_window);
  TCA_ASSERT(port.is_ok());
  return *port.value();
}

Result<pcie::LinkPort*> ComputeNode::try_attach_peach2_slot(
    pcie::DeviceId device_id, std::uint64_t reg_base, bool claim_tca_window) {
  // Boot-time BAR sizing: the register window always fits; the 512 GB TCA
  // window needs a qualified board (footnote 2).
  if (Status st = bios_.claim_bar(layout::kPeach2RegSize); !st.is_ok()) {
    return st;
  }
  if (claim_tca_window) {
    if (Status st = bios_.claim_bar(calib::kTcaWindowBytes); !st.is_ok()) {
      return st;
    }
  }
  // Shallow egress queue: the PEACH2 DMA engine's descriptor pacing derives
  // from real link backpressure (calib::kPeach2LinkTxQueueBytes).
  auto& link = peach2_links_.emplace_back(std::make_unique<pcie::PcieLink>(
      sched_,
      pcie::LinkConfig{.gen = 2,
                       .lanes = 8,
                       .tx_queue_bytes = calib::kPeach2LinkTxQueueBytes,
                       .name = "slot" + std::to_string(peach2_links_.size()) +
                               "/node" + std::to_string(index_)}));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bars = {
      {reg_base, layout::kPeach2RegSize}};
  if (claim_tca_window) {
    bars.emplace_back(calib::kTcaWindowBase, calib::kTcaWindowBytes);
  }
  Status st = rc0_.attach_device(device_id, link->end_a(), bars);
  if (!st.is_ok()) return st;
  return &link->end_b();
}

}  // namespace tca::node
