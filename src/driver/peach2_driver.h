// PEACH2 device driver + P2P (GPUDirect) driver emulation.
//
// The paper's Section IV: "We develop two device drivers: the PEACH2 driver
// for controlling the PEACH2 board and the P2P driver for enabling GPUDirect
// Support for RDMA." This module models both at the level the evaluation
// measures:
//
//  * Peach2Driver — register-file programming over MMIO, descriptor-table
//    construction in host DRAM, doorbell/interrupt DMA flow (including the
//    TSC-measured elapsed time exactly as Section IV-A describes: read the
//    clock just before DMA start, read it again in the completion interrupt
//    handler), the mmapped PIO window, and a host-side DMA buffer.
//  * P2pDriver — pins GPU pages into the BAR1 aperture using the CUDA-style
//    token handshake so PEACH2 (or any PCIe device) can address GPU memory.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "calib/calibration.h"
#include "common/stats.h"
#include "gpu/gpu_device.h"
#include "node/compute_node.h"
#include "peach2/chip.h"
#include "peach2/descriptor.h"
#include "peach2/dmac.h"
#include "peach2/registers.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::driver {

/// P2P driver: performs the 4-step GPUDirect pinning dance of Section IV-A2.
class P2pDriver {
 public:
  explicit P2pDriver(node::ComputeNode& node) : node_(node) {}

  /// Pins [ptr, ptr+len) of `gpu_index`'s memory and returns its PCIe bus
  /// address (BAR1). Steps: token lookup (cuPointerGetAttribute) then pin.
  Result<std::uint64_t> pin(int gpu_index, gpu::DevPtr ptr, std::uint64_t len);

  Status unpin(int gpu_index, gpu::DevPtr ptr, std::uint64_t len);

 private:
  node::ComputeNode& node_;
};

/// Layout of the driver's reserved region inside host DRAM: the descriptor
/// table takes the last megabyte, everything below it is the DMA buffer.
struct DriverHostLayout {
  /// DMA buffer available to users of the driver (source/target of DMA).
  std::uint64_t dma_buffer_offset = 0;
  std::uint64_t dma_buffer_bytes = 0;
  /// Descriptor table written by run_chain.
  std::uint64_t desc_table_offset = 0;
  std::uint64_t desc_table_bytes = 0;

  static DriverHostLayout for_dram_size(std::uint64_t dram_bytes);
};

/// Recovery policy for a DMA chain: the only one. run_chain_reliable takes
/// it and the API re-exports it as api::SyncOptions. The default waits
/// forever on one attempt.
///
/// Watchdog rule: each attempt arms `deadline_ps` when it is > 0; otherwise
/// calib::kChainWatchdogPs when `max_attempts` > 1 (a wedged attempt must
/// end for the next one to start); otherwise nothing. Attempts after the
/// first wait calib::kRetryBackoffBasePs, doubling each time.
struct SyncOptions {
  /// Per-attempt chain deadline. A chain still running at expiry is
  /// aborted and the attempt reports kTimedOut instead of hanging.
  TimePs deadline_ps = 0;
  /// Doorbell attempts per chain (0 runs one).
  std::uint32_t max_attempts = 1;
};

/// Outcome of one chain submission, in any completion mode.
struct ChainResult {
  /// kOk, kTimedOut (watchdog fired), the per-descriptor DMAC error, or the
  /// verdict of run_chain_reliable's abort check.
  Status status;
  TimePs elapsed = 0;  ///< TSC-measured elapsed time of the final attempt
  std::uint32_t attempts = 0;
};

class Peach2Driver {
 public:
  /// `reg_base` is the bus address of the board's BAR0 (a node may carry two
  /// boards in the Fig. 10 loopback setup).
  Peach2Driver(node::ComputeNode& node, peach2::Peach2Chip& chip,
               std::uint64_t reg_base = node::layout::kPeach2RegBase);

  [[nodiscard]] node::ComputeNode& node() { return node_; }
  [[nodiscard]] peach2::Peach2Chip& chip() { return chip_; }
  [[nodiscard]] const DriverHostLayout& host_layout() const { return layout_; }
  [[nodiscard]] P2pDriver& p2p() { return p2p_; }

  // --- Register access (MMIO) ----------------------------------------------
  sim::Task<> write_register(std::uint64_t offset, std::uint64_t value);
  sim::Task<std::uint64_t> read_register(std::uint64_t offset);

  // --- DMA -------------------------------------------------------------------
  /// Serializes the chain into the descriptor table in host memory, rings
  /// the doorbell over MMIO, and waits for the completion interrupt.
  /// `elapsed` is the TSC-measured time from just-before-doorbell to the
  /// interrupt handler's clock read (the paper's measurement method).
  /// `channel` selects one of the kDmaChannels independent engines.
  /// `timeout_ps` > 0 arms a chain watchdog: if the completion interrupt
  /// has not arrived by then, the driver aborts the engine and the chain
  /// finishes with kTimedOut instead of hanging forever.
  sim::Task<ChainResult> run_chain(std::vector<peach2::DmaDescriptor> chain,
                                   int channel = 0, TimePs timeout_ps = 0);

  /// The auto-channel entry point: acquires a free DMA channel (suspending
  /// while all are busy), runs the chain on it under `options`, and
  /// releases it. A failed attempt re-rings the doorbell after backoff,
  /// giving a NIOS-serviced ring failover time to reroute first.
  /// `abort_check`, when set, is consulted after a failed attempt that has
  /// attempts left: a non-OK verdict ends the retries with that status (the
  /// API's hook for surfacing a fabric partition as a prompt kUnreachable).
  sim::Task<ChainResult> run_chain_reliable(
      std::vector<peach2::DmaDescriptor> chain, SyncOptions options = {},
      std::function<Status()> abort_check = {});

  /// Descriptor-less immediate DMA: latches src/dst/len in registers and
  /// kicks — no table in host memory, no table fetch. The low-latency path
  /// for small transfers the paper calls for in Section IV-A1. Takes the
  /// descriptor by value: a coroutine must not keep a reference to a
  /// caller temporary across its suspension points.
  sim::Task<ChainResult> run_immediate(peach2::DmaDescriptor desc,
                                       int channel = 0);

  /// Like run_chain, but completion is signaled by a status writeback into
  /// host memory that the driver polls, instead of an interrupt. Shaves the
  /// interrupt-delivery latency off every chain.
  sim::Task<ChainResult> run_chain_polled(
      std::vector<peach2::DmaDescriptor> chain, int channel = 0);

  // --- PIO --------------------------------------------------------------------
  /// Store through the mmapped window: `global_addr` is a TCA global
  /// address (the window is identity-mapped onto the global space).
  sim::Task<> pio_store(std::uint64_t global_addr,
                        std::span<const std::byte> data);

  /// Convenience: 32-bit PIO store (the paper's 4-byte latency probe).
  sim::Task<> pio_store_u32(std::uint64_t global_addr, std::uint32_t value);

  // --- Helpers -----------------------------------------------------------------
  /// Global TCA address of this node's DMA buffer at `offset`.
  [[nodiscard]] std::uint64_t host_buffer_global(std::uint64_t offset) const;

  /// Global TCA address of pinned GPU memory (gpu_index 0/1 only: PEACH2
  /// reaches only the two GPUs on its own socket).
  [[nodiscard]] std::uint64_t gpu_global(int gpu_index,
                                         gpu::DevPtr ptr) const;

  /// Global TCA address inside this chip's internal RAM.
  [[nodiscard]] std::uint64_t internal_global(std::uint64_t offset) const;

  // --- Statistics -------------------------------------------------------------
  /// DMA chains completed through this driver (any completion mode).
  [[nodiscard]] std::uint64_t chains_run() const { return chains_run_; }
  [[nodiscard]] std::uint64_t pio_stores() const { return pio_stores_; }
  [[nodiscard]] std::uint64_t pio_bytes() const { return pio_bytes_; }
  /// Doorbell-to-interrupt latency samples (the paper's TSC measurement);
  /// recorded only while obs::sampling_enabled().
  [[nodiscard]] const SampleSeries& chain_latency_ps() const {
    return chain_latency_;
  }
  /// Chain watchdog expirations (each one aborted an engine).
  [[nodiscard]] std::uint64_t watchdog_timeouts() const { return timeouts_; }
  /// Doorbell re-rings performed by run_chain_reliable.
  [[nodiscard]] std::uint64_t chain_retries() const { return retries_; }
  /// Error interrupts serviced (AER-flavored kErrStatus raises).
  [[nodiscard]] std::uint64_t error_irqs() const { return error_irqs_; }
  /// Every error-status bit ever serviced by the error ISR (diagnostics).
  [[nodiscard]] std::uint64_t error_bits_seen() const {
    return error_bits_seen_;
  }

 private:
  /// Per-channel slice of the descriptor-table region; the completion
  /// writeback word sits at the slice's tail.
  [[nodiscard]] std::uint64_t table_offset(int channel) const;
  [[nodiscard]] std::uint64_t table_slice_bytes() const;
  sim::Task<> write_table(std::span<const peach2::DmaDescriptor> chain,
                          int channel);
  sim::Task<> error_isr(std::uint64_t bits);
  /// The finished chain's outcome from `channel`'s DMAC status register:
  /// the per-descriptor error it latched, or OK (all completion modes).
  [[nodiscard]] Status dmac_status(int channel) const;

  node::ComputeNode& node_;
  peach2::Peach2Chip& chip_;
  std::uint64_t reg_base_;
  DriverHostLayout layout_;
  P2pDriver p2p_;
  std::array<std::unique_ptr<sim::Trigger>, 4> dma_done_;
  std::array<bool, 4> dma_in_flight_{};
  sim::Semaphore channel_sem_;
  std::vector<int> free_channels_;

  std::uint64_t chains_run_ = 0;
  std::uint64_t pio_stores_ = 0;
  std::uint64_t pio_bytes_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t error_irqs_ = 0;
  std::uint64_t error_bits_seen_ = 0;
  SampleSeries chain_latency_;
};

}  // namespace tca::driver
