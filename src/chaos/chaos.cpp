#include "chaos/chaos.h"

#include <algorithm>
#include <span>
#include <utility>

#include "api/tca.h"
#include "calib/calibration.h"
#include "coll/communicator.h"
#include "common/hash.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/trace.h"
#include "fabric/sub_cluster.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"

namespace tca::chaos {

using units::ms;
using units::ns;
using units::us;

namespace {

// The recovery policy every campaign's workloads run under, and its
// no-wedge horizon. Constants, not CampaignSpec fields: a .campaign file
// pins behavior through seed/topology/workload/plan alone, so a spec that
// varied these would replay as a different campaign.
constexpr TimePs kDeadlinePs = us(300);
constexpr std::uint32_t kMaxAttempts = 3;
constexpr TimePs kFlagTimeoutPs = ms(2);
/// Every workload task must resolve by then.
constexpr TimePs kHorizonPs = ms(100);

}  // namespace

namespace {

Result<std::uint32_t> parse_count(std::string_view text,
                                  std::string_view what) {
  if (text.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string(what) + ": missing node count");
  }
  std::uint32_t n = 0;
  if (!parse_unsigned(text, &n)) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string(what) + ": bad node count \"" +
                      std::string(text) + "\"");
  }
  return n;
}

}  // namespace

Result<fabric::TopologySpec> parse_topology(std::string_view text) {
  if (text.starts_with("ring:")) {
    auto n = parse_count(text.substr(5), "ring");
    if (!n.is_ok()) return n.status();
    return fabric::TopologySpec::ring(n.value());
  }
  if (text.starts_with("dual-ring:")) {
    auto n = parse_count(text.substr(10), "dual-ring");
    if (!n.is_ok()) return n.status();
    return fabric::TopologySpec::dual_ring(n.value());
  }
  if (text.starts_with("torus:")) {
    return fabric::TopologySpec::parse(text);
  }
  return Status(ErrorCode::kInvalidArgument,
                "unknown topology \"" + std::string(text) +
                    "\" (want ring:N, dual-ring:N or torus:XxY[xZ])");
}

std::string topology_to_string(const fabric::TopologySpec& topo) {
  switch (topo.kind()) {
    case fabric::TopologySpec::Kind::kRing:
      return "ring:" + std::to_string(topo.node_count());
    case fabric::TopologySpec::Kind::kDualRing:
      return "dual-ring:" + std::to_string(topo.node_count());
    case fabric::TopologySpec::Kind::kTorus:
      return topo.to_string();  // "torus:XxY[xZ]" carries the shape already
  }
  return "?";
}

// --- CampaignSpec serialization ---------------------------------------------

std::string CampaignSpec::to_string() const {
  std::string out;
  out += "seed=" + std::to_string(seed) + "\n";
  out += "topology=" + topology_to_string(topology) + "\n";
  out += "workload=" + std::string(workload::to_string(workload)) + "\n";
  out += "plan=" + plan.to_string() + "\n";
  return out;
}

Result<CampaignSpec> CampaignSpec::parse(std::string_view text) {
  CampaignSpec spec;
  spec.plan.events.clear();
  unsigned seen = 0;  // bit per key, duplicate detection
  std::size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status(ErrorCode::kInvalidArgument,
                    "campaign line " + std::to_string(line_no) +
                        ": expected key=value, got \"" + std::string(line) +
                        "\"");
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    unsigned bit = 0;
    if (key == "seed") {
      bit = 1u << 0;
      if (value.empty()) {
        return Status(ErrorCode::kInvalidArgument, "campaign: empty seed");
      }
      if (!parse_unsigned(value, &spec.seed)) {
        return Status(ErrorCode::kInvalidArgument,
                      "campaign: bad seed \"" + std::string(value) + "\"");
      }
    } else if (key == "topology") {
      bit = 1u << 1;
      auto topo = parse_topology(value);
      if (!topo.is_ok()) return topo.status();
      spec.topology = topo.value();
    } else if (key == "workload") {
      bit = 1u << 2;
      auto w = workload::parse(value);
      if (!w.is_ok()) return w.status();
      spec.workload = w.value();
    } else if (key == "plan") {
      bit = 1u << 3;
      if (!value.empty()) {
        auto plan = fabric::FaultPlan::parse(value);
        if (!plan.is_ok()) return plan.status();
        spec.plan = std::move(plan).value();
      }
    } else {
      return Status(ErrorCode::kInvalidArgument,
                    "campaign line " + std::to_string(line_no) +
                        ": unknown key \"" + std::string(key) + "\"");
    }
    if (seen & bit) {
      return Status(ErrorCode::kInvalidArgument,
                    "campaign: duplicate key \"" + std::string(key) + "\"");
    }
    seen |= bit;
  }
  return spec;
}

// --- Fault-plan generation ---------------------------------------------------

fabric::FaultPlan generate_fault_plan(std::uint64_t seed,
                                      const fabric::TopologySpec& topo) {
  // Distinct stream from workload data fills so reordering draws in one
  // never perturbs the other.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  fabric::FaultPlan plan;
  const std::uint32_t cables = topo.cable_count();
  const std::uint32_t nodes = topo.node_count();
  if (cables == 0 || nodes == 0) return plan;

  // BER rates restricted to values whose default ostream rendering parses
  // back to the same double, so generated plans round-trip through
  // FaultPlan::parse(to_string()) exactly.
  static constexpr double kBerRates[] = {1e-7, 5e-7, 1e-6,
                                         2.5e-6, 5e-6, 1e-5};

  const std::uint64_t max_events =
      std::min<std::uint64_t>(12, 4 + cables / 8);
  const std::uint64_t count = 1 + rng.next_below(max_events);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t kind = rng.next_below(100);
    const TimePs at = static_cast<TimePs>(rng.next_below(
        static_cast<std::uint64_t>(us(200))));
    if (kind < 40) {
      // Flap; 1 in 5 shorter than the NIOS failover service latency so
      // retrain can race the reroute.
      const TimePs dur =
          rng.next_below(5) == 0
              ? ns(1) + static_cast<TimePs>(rng.next_below(
                            static_cast<std::uint64_t>(us(1))))
              : us(1) + static_cast<TimePs>(rng.next_below(
                            static_cast<std::uint64_t>(us(149))));
      plan.flap(static_cast<std::uint32_t>(rng.next_below(cables)), at, dur);
    } else if (kind < 50) {
      plan.cut(static_cast<std::uint32_t>(rng.next_below(cables)), at);
    } else if (kind < 60) {
      plan.up(static_cast<std::uint32_t>(rng.next_below(cables)), at);
    } else if (kind < 80) {
      const TimePs dur = us(1) + static_cast<TimePs>(rng.next_below(
                                     static_cast<std::uint64_t>(us(49))));
      plan.ber_burst(static_cast<std::uint32_t>(rng.next_below(cables)), at,
                     dur, kBerRates[rng.next_below(std::size(kBerRates))]);
    } else {
      const TimePs dur = us(1) + static_cast<TimePs>(rng.next_below(
                                     static_cast<std::uint64_t>(us(99))));
      plan.stuck_doorbell(
          static_cast<std::uint32_t>(rng.next_below(nodes)),
          static_cast<int>(rng.next_below(calib::kDmaChannels)), at, dur);
    }
  }
  return plan;
}

// --- Campaign execution ------------------------------------------------------

namespace {

/// The workload's bytes, part of the campaign's identity. The allreduce
/// straddles the eager/ring crossover (n*64 doubles ride eager, n*256 the
/// DMA ring); the 4 KiB halo row crosses onto the DMA staging path.
std::uint64_t campaign_bytes(const CampaignSpec& spec) {
  switch (spec.workload) {
    case workload::Kind::kAllreduce:
    case workload::Kind::kMixed:
      return spec.topology.node_count() * (1 + spec.seed % 4) * 64 *
             sizeof(double);
    case workload::Kind::kHalo:
      return 1024ull << (spec.seed % 3);
    case workload::Kind::kPingPong:
      return 4096;
  }
  return 0;
}

/// A campaign failure is any status outside the clean-outcome set: a fault
/// may fail an op, but only through the recovery machinery's vocabulary.
bool clean_status(const Status& st) {
  switch (st.code()) {
    case ErrorCode::kOk:
    case ErrorCode::kTimedOut:
    case ErrorCode::kLinkDown:
    case ErrorCode::kUnreachable:
    case ErrorCode::kAborted:
      return true;
    default:
      return false;
  }
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec) {
  CampaignResult result;
  auto violate = [&result](std::string msg) {
    result.violations.push_back(std::move(msg));
  };

  // The campaign owns the global trace for its duration: deterministic
  // same-seed replay is judged on the full event stream.
  Trace& trace = Trace::instance();
  const bool trace_was_enabled = trace.enabled();
  trace.clear();
  trace.enable();

  fabric::FaultPlan plan = spec.plan.empty()
                               ? generate_fault_plan(spec.seed, spec.topology)
                               : spec.plan;

  {
    sim::Scheduler sched;
    api::TcaConfig cfg;
    cfg.spec = spec.topology;
    // These sizes are part of every campaign's identity: the committed
    // corpus (tests/chaos) was shrunk against them, so changing them
    // changes what a replay exercises. 3 MiB clears the driver-layout floor.
    cfg.node_config.gpu_count = 2;
    cfg.node_config.host_backing_bytes = 3ull << 20;
    cfg.node_config.gpu_backing_bytes = 256ull << 10;
    cfg.fault_plan = plan;

    auto rt_result = api::Runtime::create(sched, cfg);
    if (!rt_result.is_ok()) {
      violate("runtime rejected campaign config: " +
              rt_result.status().to_string());
    } else {
      api::Runtime rt = std::move(rt_result).value();

      // Heartbeats: probes spread across the horizon that record the clock;
      // the monotonic-time invariant checks them after the run.
      std::vector<TimePs> heartbeats;
      heartbeats.reserve(16);
      for (int i = 1; i <= 16; ++i) {
        sched.schedule_at(kHorizonPs * i / 16, [&sched, &heartbeats] {
          heartbeats.push_back(sched.now());
        });
      }

      auto work = workload::Workload::setup(
          rt, spec.workload, workload::Placement::kHost, campaign_bytes(spec),
          spec.seed,
          {.pipeline_seg_bytes = 4096,
           .staging_slots = 2,
           .sync = {.deadline_ps = kDeadlinePs, .max_attempts = kMaxAttempts},
           .flag_timeout_ps = kFlagTimeoutPs});
      std::span<const workload::OpSlot> slots;
      if (!work.is_ok()) {
        violate("workload setup failed: " + work.status().to_string());
      } else {
        work.value().spawn();
        slots = work.value().slots();
      }

      // --- Run -----------------------------------------------------------
      sched.run_for(kHorizonPs);

      bool wedged = false;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].done) {
          wedged = true;
          violate("no-wedge: workload task " + std::to_string(i) +
                  " still pending at the " +
                  units::format_time(kHorizonPs) + " horizon");
        }
      }
      // Drain fault-plan tails (window closes, retrains) so end-state
      // invariants see quiescence. Skipped when wedged: a hung poller
      // would spin this drain forever.
      if (!wedged) sched.run();
      result.sim_end_ps = sched.now();

      // --- Invariants -----------------------------------------------------
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].done) continue;
        if (!clean_status(slots[i].status)) {
          violate("status vocabulary: task " + std::to_string(i) +
                  " returned " + slots[i].status.to_string());
        }
        if (slots[i].status.is_ok()) {
          ++result.ops_ok;
        } else {
          ++result.ops_failed;
        }
      }

      for (std::size_t i = 1; i < heartbeats.size(); ++i) {
        if (heartbeats[i] <= heartbeats[i - 1]) {
          violate("monotonic time: heartbeat " + std::to_string(i) +
                  " observed " + std::to_string(heartbeats[i]) +
                  " ps after " + std::to_string(heartbeats[i - 1]) + " ps");
          break;
        }
      }

      // Data integrity, checked only where the protocol promised delivery.
      if (work.is_ok() && !wedged) {
        if (const Status st = work.value().verify(); !st.is_ok()) {
          violate("data: " + st.message());
        }
      }

      // Hardware-counter invariants via the metrics surface.
      obs::MetricRegistry reg;
      if (work.is_ok() && work.value().communicator() != nullptr) {
        work.value().communicator()->export_metrics(reg);
      } else {
        rt.export_metrics(reg);
      }

      const fabric::SubCluster& cluster = rt.cluster();
      for (std::size_t k = 0; k < cluster.cable_count(); ++k) {
        const auto [from, to] = cluster.cable_nodes(k);
        const std::string base = "pcie.cable." + std::to_string(from) + "-" +
                                 std::to_string(to);
        for (const char* dir : {".fwd", ".rev"}) {
          const std::string p = base + dir;
          const std::uint64_t tlps = reg.counter_value(p + ".tlps");
          const std::uint64_t wire = reg.counter_value(p + ".wire_bytes");
          const std::uint64_t payload =
              reg.counter_value(p + ".payload_bytes");
          const std::uint64_t want =
              payload + calib::kTlpWithDataOverheadBytes * tlps;
          if (wire != want) {
            violate("byte conservation: " + p + " wire_bytes=" +
                    std::to_string(wire) + " != payload_bytes+" +
                    std::to_string(calib::kTlpWithDataOverheadBytes) +
                    "*tlps=" + std::to_string(want));
          }
        }
      }
      if (const std::uint64_t u = reg.counter_value("fabric.unroutable");
          u != 0) {
        violate("routing: fabric.unroutable = " + std::to_string(u));
      }
      if (const std::uint64_t m =
              reg.counter_value("fabric.route_mismatches");
          m != 0) {
        violate("route consistency: " + std::to_string(m) +
                " route registers disagree with the failover view");
      }

      result.failovers = cluster.failovers();
      result.failbacks = cluster.failbacks();
      result.metrics_json = reg.to_json();
      result.metrics_hash = fnv1a64(result.metrics_json);
    }
  }

  result.trace_hash = fnv1a64(trace.to_json());
  trace.clear();
  if (!trace_was_enabled) trace.disable();
  return result;
}

// --- Shrinking ---------------------------------------------------------------

ShrinkOutcome shrink_campaign(const CampaignSpec& failing,
                              std::uint32_t max_runs) {
  ShrinkOutcome out;
  CampaignSpec spec = failing;
  if (spec.plan.empty()) {
    spec.plan = generate_fault_plan(spec.seed, spec.topology);
  }
  out.original_events = spec.plan.events.size();

  auto fails = [&out](const CampaignSpec& s) {
    ++out.runs;
    return !run_campaign(s).passed();
  };

  if (!fails(spec)) {
    out.minimized = spec;
    out.minimized_events = spec.plan.events.size();
    return out;  // reproduced stays false: nothing to shrink
  }
  out.reproduced = true;

  // ddmin, complement-removal form: try dropping each of `granularity`
  // chunks; on success restart at coarse granularity, otherwise refine
  // until chunks are single events.
  std::vector<fabric::FaultEvent> events = spec.plan.events;
  std::size_t granularity = 2;
  while (events.size() >= 2 && out.runs < max_runs) {
    granularity = std::min(granularity, events.size());
    const std::size_t chunk =
        (events.size() + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t start = 0; start < events.size() && out.runs < max_runs;
         start += chunk) {
      std::vector<fabric::FaultEvent> rest;
      rest.reserve(events.size());
      rest.insert(rest.end(), events.begin(),
                  events.begin() + static_cast<std::ptrdiff_t>(start));
      rest.insert(rest.end(),
                  events.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(events.size(), start + chunk)),
                  events.end());
      if (rest.empty()) continue;
      CampaignSpec trial = spec;
      trial.plan.events = rest;
      if (fails(trial)) {
        events = std::move(rest);
        granularity = 2;
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= events.size()) break;  // 1-minimal
      granularity *= 2;
    }
  }

  spec.plan.events = std::move(events);
  out.minimized = spec;
  out.minimized_events = spec.plan.events.size();
  return out;
}

}  // namespace tca::chaos
