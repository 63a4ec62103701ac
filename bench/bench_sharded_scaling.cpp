// Sharded-engine scaling sweep: wall-clock of the conservative parallel
// DES engine against the frozen seed queue on a ring of N simulated nodes
// (N >= 64 is the gated point), weak-scaled so each node carries the same
// event load.
//
// The workload mirrors the fabric's shape without the fabric's cost, so the
// event engine dominates:
//   * per-node local timers — K self-rescheduling timers per node with
//     ~40-byte captures that walk a private 4 KiB state block (the
//     LinkPort/Dmac serializer shape);
//   * per-node completion timeouts — every local fire disarms and re-arms
//     the node's watchdog, the fault-domain recovery pattern: timeouts
//     almost never fire, they churn (the seed queue pays a tombstone-set
//     insert per disarm, the indexed/sharded queues unlink in place);
//   * ring tokens — one token per node circling the ring, each hop crossing
//     to the neighbour's shard with the cable's flight time (= the
//     conservative lookahead, calib::kConservativeLookaheadPs), exactly the
//     cross-shard edge the epoch barrier is derived from.
//
// Four configurations run per N:
//   baseline   frozen seed priority_queue (bench/seed_scheduler.h)
//   indexed    sim::Scheduler (calendar tiers + 4-ary heap)
//   epoch T=1  sim::ShardedEngine, conservative epochs, one worker — the
//              gated configuration: per-shard O(1) calendar queues plus
//              epoch-batched per-node execution (cache locality), no
//              cross-thread overhead to mask the algorithmic win
//   epoch T=2  same, two workers — must match T=1 bit for bit
//
// Determinism gates:
//   * baseline / indexed agree on a global order-sensitive hash and on
//     every per-shard hash;
//   * indexed / epoch T=1 / epoch T=2 agree on every per-shard event-order
//     hash (the per-shard projection is the invariant epochs preserve; the
//     workload keeps local-event times off the token-arrival time lattice so
//     the projection is tie-free).
//
// Wall-clock gate: at the largest N (>= 64), baseline / epoch-T=1 >= 2x.
// --json PATH emits the sweep for scripts/bench_perf.sh to merge into
// BENCH_sim_core.json; --smoke shrinks it for scripts/check.sh.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/seed_scheduler.h"
#include "calib/calibration.h"
#include "fabric/topology.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"

namespace tca::bench {
namespace {

using sim::Scheduler;
using sim::ShardedEngine;
using Clock = std::chrono::steady_clock;

constexpr TimePs kHopPs = calib::kConservativeLookaheadPs;  // cable flight
constexpr std::size_t kStateWords = 512;                    // 4 KiB per node
constexpr int kTimersPerNode = 8;
constexpr TimePs kTimeoutPs = 5 * 40'000;  // watchdog: re-armed long before it fires

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Token arrivals land on the multiple-of-5 ps lattice; local timers start at
/// residue 1..4 and advance by multiples of 5, so a mailbox-drained event
/// never ties with a locally scheduled one at the same picosecond — the
/// single queue and the epoch engine then execute every shard's events in the
/// same order.
TimePs round_up_to_lattice(TimePs t) { return (t + 4) / 5 * 5; }

/// Files `fn` at absolute time `at` on `node`'s shard. The single-queue
/// engines have no shards and ignore the tag.
template <typename Engine, typename F>
std::uint64_t post(Engine& e, std::uint32_t node, TimePs at, F&& fn) {
  if constexpr (std::is_same_v<Engine, ShardedEngine>) {
    return e.schedule(node, at, std::forward<F>(fn));
  } else {
    return e.schedule_at(at, std::forward<F>(fn));
  }
}

template <typename Engine>
struct Rig;

struct Pad32 {
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
};

template <typename Engine>
struct LocalTimer {
  Rig<Engine>* rig;
  std::uint32_t node;
  TimePs period;       // multiple of 5
  std::uint64_t left;  // fires remaining
};

template <typename Engine>
struct Rig {
  Engine* sched = nullptr;
  std::uint32_t nodes = 0;
  std::uint32_t token_hops = 0;
  std::vector<std::uint32_t> next_of;  // token successor per node
  bool track_global = false;  // off for multi-thread epoch runs (shared word)
  std::uint64_t global_hash = 0xcbf29ce484222325ull;
  std::vector<std::uint64_t> shard_hash;   // one slot per node == shard
  std::vector<std::uint64_t> state;        // nodes * kStateWords
  std::vector<LocalTimer<Engine>> timers;
  std::vector<std::uint64_t> timeout;  // per-node armed watchdog

  /// (Re-)arms node's watchdog at absolute time `at`. Same-shard schedule:
  /// the id stays valid and cancellable from the node's own events on every
  /// engine. Callers keep `at` off the multiple-of-5 token lattice.
  void arm_timeout(std::uint32_t node, TimePs at) {
    timeout[node] = post(*sched, node, at, [this, node, pad = Pad32{}] {
      (void)pad;
      touch(node, 0x7400ull + node);  // expired: fires only at drain
    });
  }

  void touch(std::uint32_t node, std::uint64_t key) {
    const TimePs now = sched->now();
    std::uint64_t* s = state.data() +
                       static_cast<std::size_t>(node) * kStateWords;
    std::uint64_t acc = key;
    const std::size_t base = static_cast<std::size_t>(key * 7) %
                             (kStateWords - 8);
    for (std::size_t j = 0; j < 8; ++j) {
      acc ^= s[base + j];
      s[base + j] = acc * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(now);
    }
    shard_hash[node] = hash_combine(shard_hash[node],
                                    acc ^ static_cast<std::uint64_t>(now));
    if (track_global) {
      global_hash = hash_combine(global_hash,
                                 acc + (static_cast<std::uint64_t>(node) << 48));
    }
  }
};

template <typename Engine>
void fire_local(LocalTimer<Engine>* t) {
  Rig<Engine>* rig = t->rig;
  rig->touch(t->node, t->left);
  // Watchdog churn: disarm and re-arm the node's timeout, the fault-domain
  // recovery pattern. now ≡ 1..4 (mod 5) here, so the re-armed time stays
  // off the token-arrival lattice.
  TCA_ASSERT(rig->sched->cancel(rig->timeout[t->node]));
  rig->arm_timeout(t->node, rig->sched->now() + kTimeoutPs);
  if (--t->left == 0) return;
  // ~40-byte capture: pointer + padding. Inline in EventFn, heap-allocated
  // by the seed queue's std::function — the realistic simulator shape.
  post(*rig->sched, t->node, rig->sched->now() + t->period,
       [t, pad = Pad32{}] {
         (void)pad;
         fire_local(t);
       });
}

template <typename Engine>
void hop_token(Rig<Engine>* rig, std::uint32_t node, std::uint32_t hops_left,
               std::uint32_t token) {
  rig->touch(node, 0x10000ull + token * 1000ull + hops_left);
  if (hops_left == 0) return;
  const std::uint32_t next = rig->next_of[node];
  // The hop crosses the cable: schedule on the *neighbour's* shard at now +
  // flight time, rounded up onto the arrival lattice. flight >= lookahead,
  // so in epoch mode this always lands at or past the epoch boundary.
  const TimePs arrive = round_up_to_lattice(rig->sched->now() + kHopPs);
  post(*rig->sched, next, arrive,
       [rig, next, hops_left, token, pad = Pad32{}] {
         (void)pad;
         hop_token(rig, next, hops_left - 1, token);
       });
}

struct RunResult {
  double wall_s = 0;
  std::uint64_t processed = 0;
  std::uint64_t global_hash = 0;
  std::vector<std::uint64_t> shard_hash;
};

struct Workload {
  std::uint32_t nodes;
  std::uint64_t fires_per_timer;
  std::uint32_t token_hops;
  /// Empty (default): plain ring successor, the original sweep byte for
  /// byte. A torus spec routes tokens along the boustrophedon ring order
  /// instead — every hop is still one cable (unit fabric hop), but the
  /// cross-shard edges now follow the snaked dimension-order walk.
  fabric::TopologySpec spec;
};

/// One full simulation of the ring/torus workload on the given engine.
template <typename Engine>
RunResult run_ring(Engine& sched, const Workload& w, bool track_global) {
  Rig<Engine> rig;
  rig.sched = &sched;
  rig.nodes = w.nodes;
  rig.token_hops = w.token_hops;
  rig.next_of.resize(w.nodes);
  if (w.spec.empty()) {
    for (std::uint32_t i = 0; i < w.nodes; ++i) {
      rig.next_of[i] = i + 1 == w.nodes ? 0 : i + 1;
    }
  } else {
    const std::vector<std::uint32_t> order = w.spec.ring_order();
    for (std::uint32_t p = 0; p < w.nodes; ++p) {
      rig.next_of[order[p]] = order[(p + 1) % w.nodes];
    }
  }
  rig.track_global = track_global;
  rig.shard_hash.assign(w.nodes, 0xcbf29ce484222325ull);
  rig.state.assign(static_cast<std::size_t>(w.nodes) * kStateWords, 0);
  rig.timeout.assign(w.nodes, 0);
  rig.timers.reserve(static_cast<std::size_t>(w.nodes) * kTimersPerNode);
  for (std::uint32_t i = 0; i < w.nodes; ++i) {
    for (int k = 0; k < kTimersPerNode; ++k) {
      rig.timers.push_back(LocalTimer<Engine>{
          &rig, i,
          5 * (90 + static_cast<TimePs>(
                        (i * 13 + static_cast<std::uint32_t>(k) * 7) % 64)),
          w.fires_per_timer});
    }
  }

  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; i < w.nodes; ++i) {
    rig.arm_timeout(i, kTimeoutPs + 1 + static_cast<TimePs>(i % 4));
  }
  for (std::size_t idx = 0; idx < rig.timers.size(); ++idx) {
    LocalTimer<Engine>* t = &rig.timers[idx];
    const TimePs start = 1 + static_cast<TimePs>((t->node + idx) % 4);
    post(sched, t->node, start, [t, pad = Pad32{}] {
      (void)pad;
      fire_local(t);
    });
  }
  for (std::uint32_t i = 0; i < w.nodes; ++i) {
    post(sched, i, round_up_to_lattice(kHopPs),
         [&rig, i, hops = w.token_hops] { hop_token(&rig, i, hops, i); });
  }
  sched.run();
  RunResult r;
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.processed = sched.events_processed();
  r.global_hash = rig.global_hash;
  r.shard_hash = std::move(rig.shard_hash);
  TCA_ASSERT(sched.empty());
  return r;
}

/// Single-queue run (seed or indexed): serial global order, so the global
/// hash is tracked too.
template <typename Sched>
RunResult run_single(const Workload& w) {
  Sched sched;
  return run_ring(sched, w, /*track_global=*/true);
}

RunResult run_sharded(const Workload& w, unsigned threads) {
  ShardedEngine::Config cfg;
  cfg.shards = w.nodes;
  cfg.lookahead_ps = calib::kConservativeLookaheadPs;
  cfg.threads = threads;
  ShardedEngine engine(cfg);
  // The global hash is a single shared word, and epoch order is only
  // defined per shard: track per-shard hashes alone.
  return run_ring(engine, w, /*track_global=*/false);
}

/// Best (minimum) wall clock over `reps` runs; asserts every rerun reproduces
/// the first run's hashes, so the timing filter doubles as a determinism
/// check.
template <typename F>
RunResult best_wall(int reps, F&& run) {
  RunResult best = run();
  for (int r = 1; r < reps; ++r) {
    RunResult next = run();
    TCA_ASSERT(next.processed == best.processed &&
               next.global_hash == best.global_hash &&
               next.shard_hash == best.shard_hash);
    best.wall_s = std::min(best.wall_s, next.wall_s);
  }
  return best;
}

struct SweepRow {
  std::string label;  // JSON key: ring_<n> or torus_<XxY[xZ]>
  std::uint32_t nodes = 0;
  double baseline_s = 0, indexed_s = 0, epoch1_s = 0, epoch2_s = 0;
  std::uint64_t events = 0;
  bool order_equivalent = false;  // baseline == indexed (global + per shard)
  bool thread_invariant = false;  // indexed == epoch1 == epoch2 (per shard)
  [[nodiscard]] double speedup() const {
    return epoch1_s > 0 ? baseline_s / epoch1_s : 0;
  }
};

std::string row_label(const Workload& w) {
  if (w.spec.empty()) return "ring_" + std::to_string(w.nodes);
  std::string label = w.spec.to_string();  // torus:8x8 -> torus_8x8
  for (char& c : label) {
    if (c == ':') c = '_';
  }
  return label;
}

SweepRow sweep_point(const Workload& w, int reps) {
  SweepRow row;
  row.label = row_label(w);
  row.nodes = w.nodes;
  const RunResult base =
      best_wall(reps, [&] { return run_single<SeedScheduler>(w); });
  const RunResult idx = best_wall(1, [&] { return run_single<Scheduler>(w); });
  const RunResult epoch1 =
      best_wall(reps, [&] { return run_sharded(w, 1); });
  const RunResult epoch2 = best_wall(1, [&] { return run_sharded(w, 2); });

  row.baseline_s = base.wall_s;
  row.indexed_s = idx.wall_s;
  row.epoch1_s = epoch1.wall_s;
  row.epoch2_s = epoch2.wall_s;
  row.events = base.processed;
  row.order_equivalent = base.processed == idx.processed &&
                         base.global_hash == idx.global_hash &&
                         base.shard_hash == idx.shard_hash;
  row.thread_invariant = idx.processed == epoch1.processed &&
                         idx.processed == epoch2.processed &&
                         idx.shard_hash == epoch1.shard_hash &&
                         idx.shard_hash == epoch2.shard_hash;
  return row;
}

int run(bool smoke, const std::string& json_path) {
  const std::vector<std::uint32_t> nodes =
      smoke ? std::vector<std::uint32_t>{16, 64}
            : std::vector<std::uint32_t>{16, 64, 128, 256};
  const std::uint64_t fires = smoke ? 150 : 2000;
  const std::uint32_t hops = smoke ? 10 : 60;
  const int reps = smoke ? 1 : 2;
  const double min_speedup = smoke ? 1.1 : 2.0;

  print_section("Sharded DES core: ring sweep wall clock (weak scaling)");

  std::vector<SweepRow> rows;
  for (std::uint32_t n : nodes) {
    rows.push_back(sweep_point(Workload{n, fires, hops}, reps));
  }
  const SweepRow gate = rows.back();  // largest ring: the wall-clock gate
                                      // (copied — rows grows below)

  // Torus sweep: same engine, tokens snaking the boustrophedon order. The
  // 8x8 and 4x4x4 tori are the >= 64-node acceptance shapes; they share the
  // ring rows' determinism gates (identical hashes across thread counts).
  const std::vector<fabric::TopologySpec> tori =
      smoke ? std::vector<fabric::TopologySpec>{fabric::TopologySpec::torus(
                  {8, 8})}
            : std::vector<fabric::TopologySpec>{
                  fabric::TopologySpec::torus({8, 8}),
                  fabric::TopologySpec::torus({4, 4, 4})};
  for (const fabric::TopologySpec& spec : tori) {
    rows.push_back(
        sweep_point(Workload{spec.node_count(), fires, hops, spec}, reps));
  }

  TablePrinter table({"topology", "events", "baseline (s)", "indexed (s)",
                      "epoch T=1 (s)", "epoch T=2 (s)", "speedup"});
  for (const SweepRow& r : rows) {
    table.add_row({r.label, std::to_string(r.events),
                   TablePrinter::cell(r.baseline_s, 3),
                   TablePrinter::cell(r.indexed_s, 3),
                   TablePrinter::cell(r.epoch1_s, 3),
                   TablePrinter::cell(r.epoch2_s, 3),
                   TablePrinter::cell(r.speedup())});
  }
  table.print();

  ShapeCheck check;
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "sharded epoch engine %.2fx >= %.1fx over seed queue at "
                "%u nodes (wall clock)",
                gate.speedup(), min_speedup, gate.nodes);
  check.expect(gate.speedup() >= min_speedup, buf);
  check.expect(gate.nodes >= 64, "gated sweep point covers >= 64 nodes");
  for (const SweepRow& r : rows) {
    std::snprintf(buf, sizeof buf,
                  "%s: seed/indexed global and per-shard event order "
                  "identical",
                  r.label.c_str());
    check.expect(r.order_equivalent, buf);
    std::snprintf(buf, sizeof buf,
                  "%s: per-shard event order identical across indexed and "
                  "epoch T=1/T=2",
                  r.label.c_str());
    check.expect(r.thread_invariant, buf);
  }
  check.expect(std::any_of(rows.begin(), rows.end(),
                           [](const SweepRow& r) {
                             return r.label.rfind("torus", 0) == 0 &&
                                    r.nodes >= 64 && r.thread_invariant;
                           }),
               ">= 64-node torus completes with thread-invariant hashes");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    check.expect(f != nullptr, "write " + json_path);
    if (f == nullptr) return check.finish(), 1;
    std::fprintf(f, "{\n  \"bench\": \"sharded_scaling\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"sharded_scaling\": {\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      std::fprintf(f,
                   "    \"%s\": {\"events\": %llu, "
                   "\"baseline_wall_s\": %.4f, \"indexed_wall_s\": %.4f, "
                   "\"epoch1_wall_s\": %.4f, \"epoch2_wall_s\": %.4f, "
                   "\"speedup\": %.3f}%s\n",
                   r.label.c_str(), static_cast<unsigned long long>(r.events),
                   r.baseline_s, r.indexed_s, r.epoch1_s, r.epoch2_s,
                   r.speedup(), i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sharded_scaling_speedup\": %.3f,\n", gate.speedup());
    std::fprintf(f, "  \"sharded_scaling_nodes\": %u,\n", gate.nodes);
    const bool all_ok =
        std::all_of(rows.begin(), rows.end(), [](const SweepRow& r) {
          return r.order_equivalent && r.thread_invariant;
        });
    std::fprintf(f, "  \"sharded_scaling_deterministic\": %s\n",
                 all_ok ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  return check.finish();
}

}  // namespace
}  // namespace tca::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  return tca::bench::run(smoke, json_path);
}
