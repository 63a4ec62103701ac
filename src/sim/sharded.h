// Conservative parallel DES engine: sharded event execution with
// link-latency lookahead.
//
// A standalone engine beside sim::Scheduler, for shard-confined workloads.
// The event space is partitioned into shards — one per simulated node or
// link endpoint — each with its own IndexedQueue, its own FrameArena, and
// its own clock. All shards advance through lockstep epochs of
// `lookahead_ps` — the minimum cross-shard link latency,
// calib::kConservativeLookaheadPs for the TCA fabric — executing their
// local events with t < epoch_end independently (null-message-free barrier
// variant of conservative PDES). A cross-shard schedule during the window is
// legal only at t >= epoch_end (guaranteed when every cross-shard
// interaction crosses a link with latency >= lookahead; asserted here) and
// is posted to the per-(src, dst) mailbox. At the epoch barrier, each
// destination drains its mailboxes in fixed (src ascending, post order)
// order, assigning fresh destination-local sequence numbers — so the result
// is deterministic and invariant under the worker-thread count: shard-local
// event order depends only on (time, per-shard seq), and mailbox-drain
// order depends only on shard ids and source-side execution order, never on
// thread interleaving. Epochs jump: the next window starts at the global
// minimum pending time, so sparse periods cost one barrier, not
// lookahead-sized busywork.
//
// Restrictions (asserted where cheap): workloads must be shard-confined —
// an event may touch only its own shard's state, schedule into its own
// shard freely, and schedule cross-shard only at >= epoch_end; cross-shard
// posts are fire-and-forget (cancel requires shard-local ids); the global
// Trace must be disabled (it is a single-threaded singleton); Log's clock
// advances only at barriers. The full simulator does not meet the first
// restriction (a LinkPort delivery synchronously pokes its peer), so it runs
// on sim::Scheduler.
//
// Event ids pack (gen << 32) | (shard << 24) | (slot + 1): 24 bits of slot
// index per shard, 8 bits of shard, generation on top — ids from different
// shards never collide and 0 stays invalid.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "sim/arena.h"
#include "sim/event_fn.h"
#include "sim/indexed_queue.h"

namespace tca::sim {

class ShardedEngine;

namespace detail {
/// Which shard the calling thread is currently executing for (set around
/// every shard's window). Routes cross-shard schedules to the mailboxes and
/// gives workers a shard-local clock through now().
struct ShardExec {
  ShardedEngine* engine = nullptr;
  std::uint32_t shard = 0;
  TimePs now = 0;
};
inline thread_local ShardExec t_shard_exec;
}  // namespace detail

class ShardedEngine {
 public:
  struct Config {
    /// Number of event shards (1..kMaxShards). One per node or link
    /// endpoint; more shards than workers is normal and cheap.
    std::uint32_t shards = 16;
    /// Conservative epoch width: the minimum latency of any cross-shard
    /// interaction, in ps. The sim layer takes this as a plain number so it
    /// stays independent of calib; fabric-level callers pass
    /// calib::kConservativeLookaheadPs (= kCableLatencyPs = 25 ns), which
    /// the default mirrors.
    TimePs lookahead_ps = 25'000;
    /// Worker threads (>= 1). The result does not depend on it.
    unsigned threads = 1;
  };

  static constexpr std::uint32_t kMaxShards = 256;
  static constexpr TimePs kNoLimit = std::numeric_limits<TimePs>::max();
  /// Per-shard calendar geometry (see IndexedQueue): a smaller ring than
  /// sim::Scheduler's, 256 ps x 1024 buckets ~ 262 ns of horizon per shard.
  static constexpr unsigned kGranLog2 = 8;
  static constexpr unsigned kBucketsLog2 = 10;

  explicit ShardedEngine(const Config& cfg);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Global committed time — or, from inside an executing event, the
  /// executing shard's local clock (what relative delays must be measured
  /// against).
  [[nodiscard]] TimePs now() const {
    const detail::ShardExec& ex = detail::t_shard_exec;
    return ex.engine == this ? ex.now : now_;
  }

  /// Schedules `fn` on `shard` at absolute time `t`. Returns a cancellable
  /// id, except for cross-shard posts from inside the window, which go
  /// through the mailbox and return 0 (fire-and-forget by design: the event
  /// has no slot until the destination drains it at the barrier).
  template <typename F>
  std::uint64_t schedule(std::uint32_t shard, TimePs t, F&& fn) {
    TCA_ASSERT(shard < shards_.size());
    const detail::ShardExec& ex = detail::t_shard_exec;
    if (ex.engine == this && ex.shard != shard) {
      // Cross-shard post from inside the parallel window: conservative
      // lookahead says the destination may already have executed up to
      // epoch_end, so earlier arrivals would be causality violations.
      TCA_ASSERT(t >= epoch_end_ &&
                 "cross-shard event inside the lookahead window");
      mail_[ex.shard * shards_.size() + shard].push_back(
          MailItem{t, EventFn(std::forward<F>(fn))});
      return 0;
    }
    // Outside the window every shard clock equals the committed clock.
    Shard& sh = *shards_[shard];
    TCA_ASSERT(t >= sh.local_now);
    const IndexedQueue::Ref ref =
        sh.q.schedule(t, sh.local_now, sh.seq++, std::forward<F>(fn));
    return pack(shard, ref);
  }

  /// Cancels a pending event by packed id. Only legal from the owning
  /// shard's execution context or outside the parallel window.
  bool cancel(std::uint64_t id);

  /// Runs all events with time <= t, then advances the committed clock to
  /// t (or, for t == kNoLimit, to the last executed event's time).
  void run_until(TimePs t);

  /// Drains the engine completely.
  void run() { run_until(kNoLimit); }

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::uint64_t events_processed() const;

 private:
  struct Shard {
    Shard() : q(kGranLog2, kBucketsLog2) {}
    FrameArena arena;  // declared before q: pending EventFn frees hit it
    IndexedQueue q;
    TimePs local_now = 0;   // shard clock
    std::uint64_t seq = 0;  // shard-local FIFO tiebreak
    std::uint64_t processed = 0;
  };

  /// A cross-shard event waiting for the epoch barrier.
  struct MailItem {
    TimePs t;
    EventFn fn;
  };

  static std::uint64_t pack(std::uint32_t shard, IndexedQueue::Ref ref) {
    TCA_ASSERT(ref.index < 0xffffffu && "shard slot space exhausted");
    return (static_cast<std::uint64_t>(ref.gen) << 32) |
           (static_cast<std::uint64_t>(shard) << 24) | (ref.index + 1u);
  }

  void run_epochs(TimePs limit);
  void exec_shard(std::uint32_t shard, TimePs epoch_end, TimePs limit);
  void drain_mail(std::uint32_t dst);
  /// Worker 0, exclusive (between barriers): commits the clock and picks
  /// the next epoch window. Returns false when nothing is left <= limit.
  bool plan_epoch(TimePs limit);

  Config cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::vector<MailItem>> mail_;  // [src * shards + dst]

  TimePs now_ = 0;        // committed global clock
  TimePs epoch_end_ = 0;  // current window end (set by plan_epoch)
};

}  // namespace tca::sim
