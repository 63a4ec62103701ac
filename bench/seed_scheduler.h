// Frozen reference: the seed event queue — std::priority_queue of
// (time, id, std::function) plus an unordered_set of cancelled-id tombstones
// checked on every pop.
//
// Not part of the simulator. bench_sim_core measures sim::Scheduler
// against it, and scheduler_stress_test uses it as
// the ordering reference (same fire order, same times). It implements the
// subset of the sim::Scheduler API those drivers touch, with the seed's
// exact costs: a std::function per event (heap-allocated past its small
// buffer), a heap sift per push and pop, and a hash lookup per pop. Keep it
// as is.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "common/units.h"

namespace tca::bench {

class SeedScheduler {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  SeedScheduler() = default;
  SeedScheduler(const SeedScheduler&) = delete;
  SeedScheduler& operator=(const SeedScheduler&) = delete;

  [[nodiscard]] TimePs now() const { return now_; }

  template <typename F>
  EventId schedule_at(TimePs t, F&& fn) {
    TCA_ASSERT(t >= now_);
    const EventId id = next_id_++;
    queue_.push(Entry{t, id, std::function<void()>(std::forward<F>(fn))});
    return id;
  }

  template <typename F>
  EventId schedule_after(TimePs delay, F&& fn) {
    TCA_ASSERT(delay >= 0);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Mark-and-skip: the tombstone is consumed when the entry surfaces.
  bool cancel(EventId id) {
    if (id == kInvalidEvent || id >= next_id_) return false;
    return cancelled_.insert(id).second;
  }

  bool step() {
    while (!queue_.empty()) {
      const Entry& top = queue_.top();
      if (auto it = cancelled_.find(top.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        queue_.pop();
        continue;
      }
      Entry entry = std::move(const_cast<Entry&>(top));
      queue_.pop();
      TCA_ASSERT(entry.time >= now_);
      now_ = entry.time;
      Log::set_now(now_);
      ++processed_;
      entry.fn();
      return true;
    }
    return false;
  }

  void run() {
    while (step()) {
    }
  }

  [[nodiscard]] bool empty() const {
    return queue_.size() == cancelled_.size();
  }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

 private:
  struct Entry {
    TimePs time;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;  // FIFO among same-time events
    }
  };

  TimePs now_ = 0;
  std::uint64_t processed_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

}  // namespace tca::bench
