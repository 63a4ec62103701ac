// CPU-core agent: MMIO stores/loads and host-memory polling.
//
// Models the software-visible costs of the driver-level operations the paper
// measures with the TSC: uncached stores into the mmapped PEACH2 window (PIO
// communication, Section III-F1), MMIO register reads, and the polling loop
// of the latency experiment (Section IV-B1).
//
// Host-word spin-waits are simulated event-driven. A wait that starts at t0
// reads the word once; if the predicate fails it parks on the agent, which
// observes every write to its node's host DRAM. A write overlapping a parked
// word schedules one wake at the first poll instant t0 + k*kCpuPollIterationPs
// (k >= 1, after the last check) at or after the write, where the word is
// read again — exactly the instant the spun loop would have seen the value,
// without simulating the idle iterations.
#pragma once

#include <coroutine>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "calib/calibration.h"
#include "memory/dram.h"
#include "node/root_complex.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace tca::node {

/// Predicate of a host-word wait: `word == value`, `>= value`, `!= value`.
enum class WordCond : std::uint8_t { kEq, kGe, kNe };

class CpuAgent final : private mem::WriteObserver {
 public:
  class HostWait;

  CpuAgent(sim::Scheduler& sched, RootComplex& rc, mem::Dram& host_dram,
           std::uint64_t host_base);
  ~CpuAgent();
  CpuAgent(const CpuAgent&) = delete;
  CpuAgent& operator=(const CpuAgent&) = delete;

  [[nodiscard]] pcie::DeviceId device_id() const { return rc_.cpu_device_id(); }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

  /// Uncached MMIO store (posted). Splits into MaxPayloadSize TLPs for large
  /// spans (write-combining); completes when the last TLP is issued — posted
  /// writes do not wait for delivery.
  sim::Task<> mmio_store(std::uint64_t bus_addr,
                         std::span<const std::byte> data);

  /// MMIO load: issues an MRd and suspends until all completions return.
  sim::Task<std::vector<std::byte>> mmio_load(std::uint64_t bus_addr,
                                              std::uint32_t length);

  /// Direct (cache-coherent) host memory access; no TLPs involved.
  void write_host(std::uint64_t offset, std::span<const std::byte> data) {
    host_dram_.write(offset, data);
  }
  void read_host(std::uint64_t offset, std::span<std::byte> out) const {
    host_dram_.read(offset, out);
  }

  /// Spins on the 4-byte host word at `offset` until `word cond value`
  /// holds, reading it every kCpuPollIterationPs from now (see the file
  /// comment). `timeout_ps` > 0 bounds the wait: at the first poll instant
  /// at or after now + timeout_ps the value is still checked first, then the
  /// wait gives up. co_await yields true when satisfied, false on timeout.
  /// A write is visible at the poll instant it lands on. A wait nothing ever
  /// satisfies (no timeout) stays parked and lets the scheduler drain.
  [[nodiscard]] HostWait wait_host_word(std::uint64_t offset, WordCond cond,
                                        std::uint32_t value,
                                        TimePs timeout_ps = 0);

  /// Polls a host-memory word every kCpuPollIterationPs until it differs
  /// from `initial`; returns the detection time (includes the TSC-read
  /// cost). This is exactly step 6 of the paper's loopback latency
  /// measurement.
  sim::Task<TimePs> poll_host_until_change(std::uint64_t offset,
                                           std::uint32_t initial);

  /// Total polling-loop iterations across all poll_host_until_change calls
  /// (each iteration burns kCpuPollIterationPs of CPU), including those a
  /// still-parked poll has spun so far.
  [[nodiscard]] std::uint64_t poll_iterations() const;

 private:
  void on_completion(pcie::Tlp cpl);
  void on_write(std::uint64_t offset, std::uint64_t len) override;

  struct PendingLoad {
    std::vector<std::byte> buffer;
    std::uint32_t received = 0;
    sim::Trigger* done = nullptr;
  };

  sim::Scheduler& sched_;
  RootComplex& rc_;
  mem::Dram& host_dram_;
  std::uint64_t host_base_;
  sim::Semaphore load_tags_;
  std::unordered_map<std::uint8_t, PendingLoad> pending_loads_;
  std::uint8_t next_tag_ = 0;
  std::uint64_t poll_iterations_ = 0;
  std::vector<HostWait*> parked_;  // in park order
};

/// Awaiter of one host-word wait; lives in the waiting coroutine's frame.
/// Destroying it while parked (the task is torn down) unregisters the watch
/// and cancels its pending events.
class CpuAgent::HostWait {
 public:
  HostWait(const HostWait&) = delete;
  HostWait& operator=(const HostWait&) = delete;
  ~HostWait();

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  [[nodiscard]] bool await_resume() const { return satisfied_; }

 private:
  friend class CpuAgent;
  HostWait(CpuAgent& cpu, std::uint64_t offset, WordCond cond,
           std::uint32_t value, TimePs timeout_ps, bool counted);

  bool check();
  void on_write();
  void arm_deadline();
  void on_deadline();
  void finish(bool satisfied);
  void unpark();
  [[nodiscard]] TimePs poll_at_or_after(TimePs t) const;
  [[nodiscard]] std::uint64_t iterations() const;

  CpuAgent* cpu_;  // null once the agent is gone
  std::uint64_t offset_;
  WordCond cond_;
  std::uint32_t value_;
  TimePs timeout_ps_;
  bool counted_;  // adds its reads to poll_iterations()
  bool satisfied_ = false;
  TimePs t0_ = 0;
  TimePs last_check_ = 0;
  TimePs deadline_ = 0;  // poll instant of the timeout check; 0 = none
  std::coroutine_handle<> waiter_;  // set while parked
  sim::Scheduler::EventId wake_ = sim::Scheduler::kInvalidEvent;
  sim::Scheduler::EventId deadline_event_ = sim::Scheduler::kInvalidEvent;
};

}  // namespace tca::node
