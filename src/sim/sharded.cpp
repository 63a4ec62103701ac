#include "sim/sharded.h"

#include <algorithm>
#include <barrier>
#include <thread>

#include "common/log.h"
#include "common/trace.h"

namespace tca::sim {

namespace {

/// RAII execution context: marks `shard` as executing on this thread.
class ShardExecScope {
 public:
  ShardExecScope(ShardedEngine* engine, std::uint32_t shard, TimePs now)
      : prev_(detail::t_shard_exec) {
    detail::t_shard_exec = detail::ShardExec{engine, shard, now};
  }
  ShardExecScope(const ShardExecScope&) = delete;
  ShardExecScope& operator=(const ShardExecScope&) = delete;
  ~ShardExecScope() { detail::t_shard_exec = prev_; }

  /// Advances the executing shard's visible clock.
  static void set_now(TimePs now) { detail::t_shard_exec.now = now; }

 private:
  detail::ShardExec prev_;
};

}  // namespace

ShardedEngine::ShardedEngine(const Config& cfg) : cfg_(cfg) {
  TCA_ASSERT(cfg_.shards >= 1 && cfg_.shards <= kMaxShards);
  TCA_ASSERT(cfg_.lookahead_ps > 0);
  TCA_ASSERT(cfg_.threads >= 1);
  shards_.reserve(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  mail_.resize(static_cast<std::size_t>(cfg_.shards) * cfg_.shards);
}

ShardedEngine::~ShardedEngine() = default;

bool ShardedEngine::cancel(std::uint64_t id) {
  const std::uint64_t lo = id & 0xffffffu;
  if (lo == 0) return false;
  const auto shard = static_cast<std::uint32_t>((id >> 24) & 0xffu);
  if (shard >= shards_.size()) return false;
  // During the parallel window only the owning shard's executor may touch
  // the shard queue; outside the window (setup, between runs) anything
  // goes — the engine is quiescent.
  const detail::ShardExec& ex = detail::t_shard_exec;
  TCA_ASSERT(ex.engine != this || ex.shard == shard);
  const IndexedQueue::Ref ref{static_cast<std::uint32_t>(lo - 1),
                              static_cast<std::uint32_t>(id >> 32)};
  return shards_[shard]->q.cancel(ref);
}

void ShardedEngine::run_until(TimePs t) {
  TCA_ASSERT(t >= now_);
  run_epochs(t);
  // Commit one clock for every shard, so schedules made between runs are
  // filed against the same `now` the next epoch peeks with.
  for (const auto& sh : shards_) now_ = std::max(now_, sh->local_now);
  if (t != kNoLimit) now_ = t;
  for (const auto& sh : shards_) sh->local_now = now_;
  Log::set_now(now_);
}

bool ShardedEngine::empty() const {
  for (const auto& sh : shards_) {
    if (!sh->q.empty()) return false;
  }
  for (const auto& box : mail_) {
    if (!box.empty()) return false;
  }
  return true;
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->processed;
  return total;
}

void ShardedEngine::exec_shard(std::uint32_t shard, TimePs epoch_end,
                               TimePs limit) {
  Shard& sh = *shards_[shard];
  // All pending events are >= the committed clock (the window starts at the
  // global minimum), so the shard clock may be pulled up to it.
  sh.local_now = std::max(sh.local_now, now_);
  ArenaScope arena(&sh.arena);
  ShardExecScope exec(this, shard, sh.local_now);
  for (;;) {
    IndexedQueue::Key k;
    if (!sh.q.peek(sh.local_now, &k)) break;
    if (k.time >= epoch_end || k.time > limit) break;
    EventFn fn;
    sh.q.pop_min(&fn);
    sh.local_now = k.time;
    ShardExecScope::set_now(k.time);
    ++sh.processed;
    fn();
  }
}

void ShardedEngine::drain_mail(std::uint32_t dst) {
  Shard& d = *shards_[dst];
  const std::size_t n = shards_.size();
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<MailItem>& box = mail_[src * n + dst];
    for (MailItem& item : box) {
      TCA_ASSERT(item.t >= d.local_now);
      d.q.schedule_fn(item.t, d.local_now, d.seq++, std::move(item.fn));
    }
    box.clear();
  }
}

bool ShardedEngine::plan_epoch(TimePs limit) {
  TimePs min_t = kNoLimit;
  for (const auto& sh : shards_) {
    IndexedQueue::Key k;
    if (sh->q.peek(sh->local_now, &k)) min_t = std::min(min_t, k.time);
  }
  if (min_t == kNoLimit || min_t > limit) return false;
  // Epochs jump to the earliest pending event, so a quiet millisecond costs
  // one pass, not lookahead-sized increments.
  if (min_t > now_) {
    now_ = min_t;
    Log::set_now(now_);
  }
  epoch_end_ = now_ > kNoLimit - cfg_.lookahead_ps ? kNoLimit
                                                   : now_ + cfg_.lookahead_ps;
  return true;
}

void ShardedEngine::run_epochs(TimePs limit) {
  // The Trace recorder is a process-wide single-threaded singleton; events
  // recording from parallel shard executors would race.
  TCA_ASSERT(!Trace::instance().enabled() &&
             "the sharded engine cannot run with tracing enabled");
  const unsigned workers = std::min<unsigned>(
      cfg_.threads, static_cast<unsigned>(shards_.size()));

  if (!plan_epoch(limit)) return;

  // Persistent worker pool for the whole call: the barrier both paces the
  // three phases (execute window / drain mailboxes / plan next) and
  // publishes the plain shared state (epoch_end_, now_, stop) written by
  // worker 0 while the others wait.
  bool stop = false;
  std::barrier<> bar(workers);
  const std::uint32_t nshards = shard_count();

  auto worker = [&](unsigned w) {
    for (;;) {
      bar.arrive_and_wait();  // window parameters published
      if (stop) return;
      const TimePs window_end = epoch_end_;
      for (std::uint32_t s = w; s < nshards; s += workers) {
        exec_shard(s, window_end, limit);
      }
      bar.arrive_and_wait();  // all executors done; mailboxes frozen
      for (std::uint32_t d = w; d < nshards; d += workers) {
        drain_mail(d);
      }
      bar.arrive_and_wait();  // all drains done
      if (w == 0) stop = !plan_epoch(limit);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    pool.emplace_back(worker, w);
  }
  worker(0);
  for (std::thread& t : pool) t.join();
}

}  // namespace tca::sim
