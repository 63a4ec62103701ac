// InfiniBand fabric model (the conventional interconnect of Table I).
//
// HA-PACS connects its nodes with dual-rail InfiniBand QDR through a
// full-bisection fat tree; for the latency/bandwidth comparison against TCA
// only the per-message behaviour matters: verbs-level one-way latency, rail
// bandwidth, and NIC serialization. Messages carry real bytes into the
// destination node's host memory, so the baselines are functionally checked
// just like the TCA path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "calib/calibration.h"
#include "common/error.h"
#include "node/compute_node.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::baseline {

/// Verbs-level RDMA fabric between the nodes of a cluster. One dual-rail
/// NIC per node at calib rates (messages are striped across rails at 4 KiB
/// granularity when both are idle — we model the aggregate rate, which is
/// what MPI achieves with rail binding) and calib::kIbRawLatencyPs verbs
/// latency.
class IbFabric {
 public:
  /// Table I: "Mellanox Connect-X3 Dual-port QDR".
  static constexpr int kRails = 2;

  IbFabric(sim::Scheduler& sched, std::vector<node::ComputeNode*> nodes);

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// Sentinel for dst_offset: model timing/delivery but skip the physical
  /// landing (used when the destination buffer is tracked elsewhere).
  static constexpr std::uint64_t kTimingOnly = ~0ull;

  /// RDMA write: src node's NIC reads `data` (already staged in pinned
  /// memory — staging costs are the caller's, i.e. MPI's) and writes it
  /// into dst node's host memory at `dst_offset`. Completes at the sender
  /// when the NIC finishes the send; delivery lands after wire latency.
  sim::Task<> rdma_write(std::uint32_t src_node, std::uint32_t dst_node,
                         std::span<const std::byte> data,
                         std::uint64_t dst_offset);

  /// Completion signal: fires `delivered` (if non-null) when the bytes are
  /// visible at the destination (used by MpiLite to complete receives).
  /// The trigger must outlive the delivery (wire latency past send
  /// completion).
  sim::Task<> rdma_write_notify(std::uint32_t src_node,
                                std::uint32_t dst_node,
                                std::span<const std::byte> data,
                                std::uint64_t dst_offset,
                                sim::Trigger* delivered);

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t host_dram_bytes(std::uint32_t node) const {
    return nodes_.at(node)->host_dram().size();
  }

 private:
  /// Per-NIC serialization: one DMA engine per rail set.
  struct Nic {
    std::unique_ptr<sim::Semaphore> engine;  // 1 permit: serializes sends
  };

  sim::Scheduler& sched_;
  std::vector<node::ComputeNode*> nodes_;
  std::vector<Nic> nics_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace tca::baseline
