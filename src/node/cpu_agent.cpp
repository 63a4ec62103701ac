#include "node/cpu_agent.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "pcie/tlp.h"

namespace tca::node {

using calib::kCpuMmioStorePs;
using calib::kCpuPollDetectPs;
using calib::kCpuPollIterationPs;
using calib::kMaxPayloadBytes;

// A fabric commit is filed kHostWriteCommitPs ahead, before the spun loop
// filed its read of the same instant, so the loop saw a commit landing on a
// poll instant at that instant. Waking on the write reproduces that only
// while the commit delay exceeds the poll period.
static_assert(calib::kHostWriteCommitPs > kCpuPollIterationPs,
              "host-word waits assume commits are filed a poll period ahead");

CpuAgent::CpuAgent(sim::Scheduler& sched, RootComplex& rc,
                   mem::Dram& host_dram, std::uint64_t host_base)
    : sched_(sched),
      rc_(rc),
      host_dram_(host_dram),
      host_base_(host_base),
      load_tags_(sched, 32) {
  rc_.set_cpu_completion_handler(
      [this](pcie::Tlp cpl) { on_completion(std::move(cpl)); });
  host_dram_.set_write_observer(this);
}

CpuAgent::~CpuAgent() {
  host_dram_.set_write_observer(nullptr);
  for (HostWait* w : parked_) {
    sched_.cancel(w->wake_);
    sched_.cancel(w->deadline_event_);
    w->cpu_ = nullptr;
  }
}

sim::Task<> CpuAgent::mmio_store(std::uint64_t bus_addr,
                                 std::span<const std::byte> data) {
  std::uint64_t done = 0;
  while (done < data.size()) {
    const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kMaxPayloadBytes, data.size() - done));
    // Store issue cost: the write-combining buffer flush per TLP.
    co_await sim::Delay(sched_, kCpuMmioStorePs);
    rc_.inject_from_cpu(pcie::Tlp::mem_write(
        bus_addr + done, data.subspan(done, chunk), device_id()));
    done += chunk;
  }
}

sim::Task<std::vector<std::byte>> CpuAgent::mmio_load(std::uint64_t bus_addr,
                                                      std::uint32_t length) {
  TCA_ASSERT(length > 0 && length <= calib::kMaxReadRequestBytes);
  co_await load_tags_.acquire();
  const std::uint8_t tag = next_tag_++;
  sim::Trigger done(sched_);
  auto [it, inserted] = pending_loads_.try_emplace(tag);
  TCA_ASSERT(inserted && "tag collision");
  it->second.buffer.resize(length);
  it->second.done = &done;

  co_await sim::Delay(sched_, kCpuMmioStorePs);  // uncached load issue
  rc_.inject_from_cpu(pcie::Tlp::mem_read(bus_addr, length, device_id(), tag));

  co_await done.wait();
  std::vector<std::byte> result = std::move(pending_loads_[tag].buffer);
  pending_loads_.erase(tag);
  load_tags_.release();
  co_return result;
}

void CpuAgent::on_completion(pcie::Tlp cpl) {
  auto it = pending_loads_.find(cpl.tag);
  TCA_ASSERT(it != pending_loads_.end() && "completion for unknown tag");
  PendingLoad& load = it->second;
  const std::uint32_t total = static_cast<std::uint32_t>(load.buffer.size());
  TCA_ASSERT(cpl.byte_count_remaining <= total);
  const std::uint32_t offset = total - cpl.byte_count_remaining;
  TCA_ASSERT(offset + cpl.payload.size() <= total);
  std::copy(cpl.payload.begin(), cpl.payload.end(),
            load.buffer.begin() + offset);
  load.received += static_cast<std::uint32_t>(cpl.payload.size());
  if (load.received == total) load.done->fire();
}

CpuAgent::HostWait CpuAgent::wait_host_word(std::uint64_t offset,
                                            WordCond cond, std::uint32_t value,
                                            TimePs timeout_ps) {
  return HostWait(*this, offset, cond, value, timeout_ps, /*counted=*/false);
}

sim::Task<TimePs> CpuAgent::poll_host_until_change(std::uint64_t offset,
                                                   std::uint32_t initial) {
  co_await HostWait(*this, offset, WordCond::kNe, initial, /*timeout_ps=*/0,
                    /*counted=*/true);
  co_await sim::Delay(sched_, kCpuPollDetectPs);  // TSC read + compare
  co_return sched_.now();
}

std::uint64_t CpuAgent::poll_iterations() const {
  std::uint64_t total = poll_iterations_;
  for (const HostWait* w : parked_) {
    if (w->counted_) total += w->iterations();
  }
  return total;
}

void CpuAgent::on_write(std::uint64_t offset, std::uint64_t len) {
  for (HostWait* w : parked_) {
    if (w->offset_ < offset + len && offset < w->offset_ + 4) w->on_write();
  }
}

// --- HostWait ----------------------------------------------------------------

CpuAgent::HostWait::HostWait(CpuAgent& cpu, std::uint64_t offset,
                             WordCond cond, std::uint32_t value,
                             TimePs timeout_ps, bool counted)
    : cpu_(&cpu),
      offset_(offset),
      cond_(cond),
      value_(value),
      timeout_ps_(timeout_ps),
      counted_(counted) {
  TCA_ASSERT(timeout_ps >= 0);
}

CpuAgent::HostWait::~HostWait() {
  if (waiter_ && cpu_ != nullptr) unpark();
}

bool CpuAgent::HostWait::await_ready() {
  t0_ = cpu_->sched_.now();
  if (!check()) return false;
  satisfied_ = true;
  if (counted_) ++cpu_->poll_iterations_;
  return true;
}

void CpuAgent::HostWait::await_suspend(std::coroutine_handle<> h) {
  waiter_ = h;
  cpu_->parked_.push_back(this);
  if (timeout_ps_ > 0) {
    // The spun loop gave up at its first read at or after t0 + timeout.
    deadline_ = poll_at_or_after(t0_ + timeout_ps_);
    arm_deadline();
  }
}

bool CpuAgent::HostWait::check() {
  last_check_ = cpu_->sched_.now();
  std::uint32_t word = 0;
  cpu_->host_dram_.read(offset_, std::as_writable_bytes(std::span(&word, 1)));
  switch (cond_) {
    case WordCond::kEq:
      return word == value_;
    case WordCond::kGe:
      return word >= value_;
    case WordCond::kNe:
      return word != value_;
  }
  return false;
}

void CpuAgent::HostWait::on_write() {
  if (wake_ != sim::Scheduler::kInvalidEvent) return;  // a read is due anyway
  // First poll instant after the last read that is not before the write.
  const TimePs at = std::max(last_check_ + kCpuPollIterationPs,
                             poll_at_or_after(cpu_->sched_.now()));
  wake_ = cpu_->sched_.schedule_at(at, [this] {
    wake_ = sim::Scheduler::kInvalidEvent;
    if (check()) finish(true);
  });
}

void CpuAgent::HostWait::arm_deadline() {
  // Filed one period ahead, as the spun loop filed each read, so a write
  // landing on the deadline instant orders against the check the same way.
  sim::Scheduler& sched = cpu_->sched_;
  if (deadline_ - kCpuPollIterationPs <= sched.now()) {
    deadline_event_ = sched.schedule_at(deadline_, [this] { on_deadline(); });
  } else {
    deadline_event_ = sched.schedule_at(deadline_ - kCpuPollIterationPs,
                                        [this] { arm_deadline(); });
  }
}

void CpuAgent::HostWait::on_deadline() {
  // Filed before any wake of this instant (those are filed later than one
  // period ahead), so this is the instant's one read.
  deadline_event_ = sim::Scheduler::kInvalidEvent;
  finish(check());
}

void CpuAgent::HostWait::finish(bool satisfied) {
  satisfied_ = satisfied;
  unpark();
  // Last statement: the resumed coroutine may destroy this awaiter.
  std::exchange(waiter_, {}).resume();
}

void CpuAgent::HostWait::unpark() {
  std::erase(cpu_->parked_, this);
  cpu_->sched_.cancel(wake_);
  cpu_->sched_.cancel(deadline_event_);
  if (counted_) cpu_->poll_iterations_ += iterations();
}

TimePs CpuAgent::HostWait::poll_at_or_after(TimePs t) const {
  const TimePs periods =
      (t - t0_ + kCpuPollIterationPs - 1) / kCpuPollIterationPs;
  return t0_ + periods * kCpuPollIterationPs;
}

std::uint64_t CpuAgent::HostWait::iterations() const {
  // One read at t0, then one per elapsed poll period.
  return static_cast<std::uint64_t>((cpu_->sched_.now() - t0_) /
                                    kCpuPollIterationPs) +
         1;
}

}  // namespace tca::node
