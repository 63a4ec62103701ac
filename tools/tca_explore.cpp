// tca_explore — command-line experiment runner for the TCA simulator.
//
// Lets a user sweep the design space without writing code: pick node count,
// topology, transfer kind, burst depth and sizes, and get the bandwidth /
// latency series for it.
//
// Examples:
//   tca_explore                                   # defaults: Fig. 7-style
//   tca_explore --nodes 8 --target remote-host --sizes 64,1024,4096
//   tca_explore --op read --burst 16
//   tca_explore --op pio --target remote-host --nodes 4 --dest 3
//   tca_explore --topology dual-ring --nodes 8 --target remote-gpu
//   tca_explore --stats                           # metrics JSON on stdout
//   tca_explore --stats-out metrics.json          # ... or to a file
//
// Fault campaigns (see fabric::FaultPlan::parse for the grammar):
//   tca_explore --target remote-host --fault-plan "flap:cable=0,at=5us,for=100us"
//   tca_explore --fault-plan "cut:cable=0,at=2us" --deadline 2000 --attempts 3
//   tca_explore --fault-plan "ber:cable=0,at=0,for=1ms,rate=1e-6" --stats
//   tca_explore --no-failover --fault-plan "cut:cable=0,at=2us" --deadline 500
//
// Workloads (tca::workload over the api::Runtime, GPU-resident; the same
// allreduce | halo | pingpong | mixed the chaos engine runs, verified byte
// for byte). --size is the allreduce vector, the halo row per direction,
// or the pingpong message per direction:
//   tca_explore --workload allreduce --size 1048576 --nodes 8
//   tca_explore --workload halo --size 8192 --stats
//   tca_explore --topology torus:4x4 --workload pingpong --size 4096
//   tca_explore --workload allreduce --size 65536
//       --fault-plan "cut:cable=0,at=5us" --deadline 300 --attempts 4
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/tca.h"
#include "bench/bench_util.h"
#include "coll/communicator.h"
#include "common/parse.h"
#include "common/trace.h"
#include "fabric/fault_plan.h"
#include "obs/metrics.h"
#include "workload/workload.h"

using namespace tca;
using bench::DmaRig;
using peach2::DmaDescriptor;
using peach2::DmaDirection;

namespace {

struct Options {
  std::uint32_t nodes = 2;
  bool nodes_set = false;  // --nodes given explicitly (torus cross-check)
  fabric::TopologySpec spec = fabric::TopologySpec::ring(2);
  std::string op = "write";           // write | read | pipelined | pio
  std::string target = "local-host";  // local-/remote- x host/gpu
  std::uint32_t burst = 255;
  std::uint32_t dest = 1;  // destination node for remote targets
  std::vector<std::uint32_t> sizes = {64, 256, 1024, 4096};
  std::string trace_path;  // chrome://tracing JSON output
  bool stats = false;      // print the metrics JSON snapshot at exit
  std::string stats_path;  // write the metrics JSON to a file instead
  fabric::FaultPlan fault_plan;   // deterministic fault campaign
  bool failover = true;           // ring failover on cable death
  std::uint32_t deadline_us = 0;  // per-attempt chain watchdog (0 = off)
  std::uint32_t attempts = 1;     // doorbell attempts per chain
  std::optional<workload::Kind> workload;  // set: workload mode
  std::uint64_t size = 1ull << 20;  // workload payload bytes
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--nodes N] [--topology ring|dual-ring|torus:XxY[xZ]] "
      "[--op write|read|pipelined|pio]\n"
      "          [--target local-host|local-gpu|remote-host|remote-gpu]\n"
      "          [--burst K] [--dest NODE] [--sizes a,b,c]\n"
      "          [--trace FILE] [--stats] [--stats-out FILE]\n"
      "          [--fault-plan SPEC] [--no-failover] [--deadline USEC]\n"
      "          [--attempts N]\n"
      "          [--workload allreduce|halo|pingpong|mixed --size BYTES]\n",
      argv0);
  std::exit(2);
}

/// Per-target window that --sizes transfers' offsets wrap inside.
constexpr std::uint32_t kOffsetWindow = 1u << 20;

/// "a,b,c" -> sizes. False on an empty or malformed entry.
bool parse_sizes(std::string_view arg, std::vector<std::uint32_t>* out) {
  out->clear();
  for (;;) {
    const std::size_t comma = arg.find(',');
    std::uint32_t size = 0;
    if (!parse_unsigned(arg.substr(0, comma), &size)) return false;
    out->push_back(size);
    if (comma == std::string_view::npos) return true;
    arg.remove_prefix(comma + 1);
  }
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Numeric flags: a malformed, signed or too-wide value is a usage error.
    auto next_number = [&]<typename T>(T* out) {
      if (!parse_unsigned(next(), out)) usage(argv[0]);
    };
    if (a == "--nodes") {
      next_number(&opt.nodes);
      opt.nodes_set = true;
    } else if (a == "--topology") {
      auto spec = fabric::TopologySpec::parse(next());
      if (!spec.is_ok()) {
        std::fprintf(stderr, "error: %s\n",
                     spec.status().to_string().c_str());
        std::exit(2);
      }
      opt.spec = std::move(spec).value();
    } else if (a == "--op") {
      opt.op = next();
    } else if (a == "--target") {
      opt.target = next();
    } else if (a == "--burst") {
      next_number(&opt.burst);
    } else if (a == "--dest") {
      next_number(&opt.dest);
    } else if (a == "--sizes") {
      if (!parse_sizes(next(), &opt.sizes)) usage(argv[0]);
    } else if (a == "--trace") {
      opt.trace_path = next();
    } else if (a == "--stats") {
      opt.stats = true;
    } else if (a == "--stats-out") {
      opt.stats_path = next();
    } else if (a == "--fault-plan") {
      auto plan = fabric::FaultPlan::parse(next());
      if (!plan.is_ok()) {
        std::fprintf(stderr, "error: %s\n", plan.status().to_string().c_str());
        std::exit(2);
      }
      opt.fault_plan = std::move(plan).value();
    } else if (a == "--no-failover") {
      opt.failover = false;
    } else if (a == "--deadline") {
      next_number(&opt.deadline_us);
    } else if (a == "--attempts") {
      next_number(&opt.attempts);
    } else if (a == "--workload") {
      auto kind = workload::parse(next());
      if (!kind.is_ok()) usage(argv[0]);
      opt.workload = kind.value();
    } else if (a == "--size") {
      next_number(&opt.size);
    } else {
      usage(argv[0]);
    }
  }
  if (opt.workload && opt.size == 0) usage(argv[0]);
  if (opt.op != "write" && opt.op != "read" && opt.op != "pipelined" &&
      opt.op != "pio") {
    usage(argv[0]);
  }
  if (opt.burst == 0 || opt.burst > calib::kMaxDescriptors) usage(argv[0]);
  // Resolve the node count: ring/dual-ring parse without one (combine with
  // --nodes), while a torus spec derives it from its extents.
  if (opt.spec.kind() == fabric::TopologySpec::Kind::kTorus) {
    if (opt.nodes_set && opt.nodes != opt.spec.node_count()) {
      std::fprintf(stderr, "error: --nodes %u does not match %s (%u nodes)\n",
                   opt.nodes, opt.spec.to_string().c_str(),
                   opt.spec.node_count());
      std::exit(2);
    }
    opt.nodes = opt.spec.node_count();
  } else if (opt.spec.kind() == fabric::TopologySpec::Kind::kDualRing) {
    opt.spec = fabric::TopologySpec::dual_ring(opt.nodes);
  } else {
    opt.spec = fabric::TopologySpec::ring(opt.nodes);
  }
  if (opt.dest >= opt.nodes) usage(argv[0]);
  // Chain and PIO offsets wrap inside a 1 MiB window of each target; a
  // larger transfer would overrun it.
  for (std::uint32_t size : opt.sizes) {
    if (size > kOffsetWindow) usage(argv[0]);
  }
  return opt;
}

/// The fabric either mode builds. main() validates it before anything is
/// built, so a bad topology or an out-of-range fault plan exits 2 with the
/// same message in both modes instead of reaching the builders' asserts.
api::TcaConfig fabric_config(const Options& opt) {
  return {.spec = opt.spec,
          .node_config = {.gpu_count = 2,
                          .host_backing_bytes = 64ull << 20,
                          .gpu_backing_bytes =
                              opt.workload ? 64ull << 20 : 8ull << 20},
          .fault_plan = opt.fault_plan,
          .enable_failover = opt.failover};
}

/// The report both modes end with: the fault-plan and recovery lines when
/// a plan ran (plus the driver's watchdog and retry counts in chain mode,
/// where `drv` is the driving node's driver), then the --stats /
/// --stats-out metrics JSON that `export_metrics` fills, and the --trace
/// file. Returns 1 when a file cannot be written, else 0.
int report(const Options& opt, fabric::SubCluster& tca, TimePs now,
           const driver::Peach2Driver* drv,
           const std::function<void(obs::MetricRegistry&)>& export_metrics) {
  if (!opt.fault_plan.empty()) {
    std::uint64_t dropped = 0, replays = 0;
    for (std::size_t k = 0; k < tca.cable_count(); ++k) {
      dropped += tca.cable(k).end_a().dropped_tlps() +
                 tca.cable(k).end_b().dropped_tlps();
      replays +=
          tca.cable(k).end_a().replays() + tca.cable(k).end_b().replays();
    }
    std::uint64_t error_irqs = 0;
    for (std::uint32_t n = 0; n < opt.nodes; ++n) {
      error_irqs += tca.chip(n).error_interrupts();
    }
    std::printf("fault-plan: %s\n", opt.fault_plan.to_string().c_str());
    std::printf(
        "recovery: failovers=%llu failbacks=%llu dropped_tlps=%llu "
        "replays=%llu error_irqs=%llu",
        static_cast<unsigned long long>(tca.failovers()),
        static_cast<unsigned long long>(tca.failbacks()),
        static_cast<unsigned long long>(dropped),
        static_cast<unsigned long long>(replays),
        static_cast<unsigned long long>(error_irqs));
    if (drv != nullptr) {
      std::printf(" watchdog_timeouts=%llu retries=%llu",
                  static_cast<unsigned long long>(drv->watchdog_timeouts()),
                  static_cast<unsigned long long>(drv->chain_retries()));
    }
    std::printf("\n");
  }

  if (opt.stats || !opt.stats_path.empty()) {
    obs::MetricRegistry reg;
    export_metrics(reg);
    if (Trace::instance().enabled()) reg.emit_trace_counters(now);
    if (!opt.stats_path.empty()) {
      const Status st = reg.write_json(opt.stats_path);
      if (!st.is_ok()) {
        std::fprintf(stderr, "stats: %s\n", st.to_string().c_str());
        return 1;
      }
      std::printf("stats: %zu metrics -> %s\n", reg.size(),
                  opt.stats_path.c_str());
    }
    if (opt.stats) std::printf("\n%s", reg.to_json().c_str());
  }

  if (!opt.trace_path.empty()) {
    const Status st = Trace::instance().write_json(opt.trace_path);
    if (!st.is_ok()) {
      std::fprintf(stderr, "trace: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("trace: %zu events -> %s (open in chrome://tracing)\n",
                Trace::instance().event_count(), opt.trace_path.c_str());
  }
  return 0;
}

/// --workload mode: drive one tca::workload (GPU-resident) over the
/// api::Runtime instead of raw driver chains, composing with --nodes,
/// --topology, --fault-plan, --no-failover, --deadline, --attempts,
/// --stats and --trace. A healthy run exits non-zero on verification
/// failure; under a fault campaign the printed outcome IS the experiment,
/// so the run exits zero either way.
int run_workload(const Options& opt, const api::TcaConfig& config) {
  sim::Scheduler sched;
  api::Runtime rt(sched, config);
  const workload::Kind kind = *opt.workload;
  coll::CollConfig cfg;
  cfg.sync = {.deadline_ps = units::us(opt.deadline_us),
              .max_attempts = opt.attempts};
  // A fault campaign may kill a neighbor's doorbell outright; bound the
  // flag waits so the run reports kTimedOut instead of never terminating.
  if (!opt.fault_plan.empty()) cfg.flag_timeout_ps = units::ms(50);

  std::printf("tca_explore: %u-node %s, workload=%s size=%s\n", opt.nodes,
              opt.spec.to_string().c_str(), workload::to_string(kind),
              units::format_size(opt.size).c_str());
  auto setup = workload::Workload::setup(rt, kind, workload::Placement::kGpu0,
                                         opt.size, /*seed=*/1, cfg);
  if (!setup.is_ok()) {
    std::fprintf(stderr, "error: %s\n", setup.status().to_string().c_str());
    return 2;
  }
  workload::Workload& work = setup.value();
  const TimePs t0 = sched.now();
  work.spawn();
  sched.run();
  const TimePs elapsed = sched.now() - t0;

  bool all_ok = true;
  for (const workload::OpSlot& slot : work.slots()) {
    if (slot.done && slot.status.is_ok()) continue;
    all_ok = false;
    std::printf("rank %u: %s\n", slot.rank,
                slot.done ? slot.status.to_string().c_str()
                          : "never completed");
  }
  const Status verified = work.verify();
  const std::uint64_t payload = work.payload_bytes();
  const std::uint64_t aggregate = payload * opt.nodes;
  std::printf("%s: %s/rank in %s  (%s aggregate, %.3f GB/s)  verify: %s\n",
              workload::to_string(kind), units::format_size(payload).c_str(),
              units::format_time(elapsed).c_str(),
              units::format_size(aggregate).c_str(),
              units::gbytes_per_second(aggregate, elapsed),
              verified.is_ok() ? "OK" : "FAILED");
  if (!verified.is_ok()) std::printf("  %s\n", verified.message().c_str());
  const coll::Communicator* comm = work.communicator();
  if (comm != nullptr) {
    const coll::CollMetrics& m = comm->metrics();
    std::printf("coll: eager_ops=%llu ring_ops=%llu bytes=%llu "
                "staged_d2h=%llu host_carry=%llu put_retries=%llu\n",
                static_cast<unsigned long long>(m.eager_ops),
                static_cast<unsigned long long>(m.ring_ops),
                static_cast<unsigned long long>(m.bytes),
                static_cast<unsigned long long>(m.staged_d2h_bytes),
                static_cast<unsigned long long>(m.host_carry_bytes),
                static_cast<unsigned long long>(m.put_retries));
  }

  if (int rc = report(opt, rt.cluster(), sched.now(), nullptr,
                      [&](obs::MetricRegistry& reg) {
                        comm != nullptr ? comm->export_metrics(reg)
                                        : rt.export_metrics(reg);
                      });
      rc != 0) {
    return rc;
  }
  if (all_ok && verified.is_ok()) return 0;
  return opt.fault_plan.empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.trace_path.empty()) Trace::instance().enable();
  // Stats requested: also record latency samples (histograms in the JSON).
  if (opt.stats || !opt.stats_path.empty()) obs::set_sampling_enabled(true);

  const api::TcaConfig config = fabric_config(opt);
  if (Status st = api::Runtime::validate_config(config); !st.is_ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 2;
  }
  if (opt.workload) return run_workload(opt, config);

  sim::Scheduler sched;
  fabric::SubCluster tca(sched, config);
  driver::Peach2Driver& drv = tca.driver(0);

  // Stage data and pin GPU windows.
  Rng rng(1);
  std::vector<std::byte> fill(tca.chip(0).internal_ram().size());
  rng.fill(fill);
  tca.chip(0).internal_ram().write(0, fill);
  std::vector<std::byte> hostfill(4 << 20);
  rng.fill(hostfill);
  for (std::uint32_t n = 0; n < opt.nodes; ++n) {
    tca.node(n).host_dram().write(0, hostfill);
    auto ptr = tca.node(n).gpu(0).mem_alloc(4 << 20);
    TCA_ASSERT(ptr.is_ok());
    TCA_ASSERT(tca.driver(n).p2p().pin(0, ptr.value(), 4 << 20).is_ok());
  }

  const bool remote = opt.target.rfind("remote", 0) == 0;
  const bool gpu = opt.target.find("gpu") != std::string::npos;
  const std::uint32_t dest_node = remote ? opt.dest : 0;
  auto target_addr = [&](std::uint64_t off) {
    return tca.layout().encode(dest_node,
                               gpu ? peach2::TcaTarget::kGpu0
                                   : peach2::TcaTarget::kHost,
                               off);
  };

  std::printf("tca_explore: %u-node %s, op=%s target=%s dest=node%u "
              "burst=%u\n",
              opt.nodes, opt.spec.to_string().c_str(), opt.op.c_str(),
              opt.target.c_str(), dest_node, opt.burst);

  TablePrinter table({"Size", "Elapsed", "Bandwidth", "Latency/op"});
  for (std::uint32_t size : opt.sizes) {
    TimePs elapsed = 0;
    const std::uint64_t total =
        static_cast<std::uint64_t>(opt.burst) * size;
    if (opt.op == "pio") {
      std::vector<std::byte> data(size, std::byte{0x11});
      const TimePs t0 = sched.now();
      for (std::uint32_t i = 0; i < opt.burst; ++i) {
        auto t = drv.pio_store(target_addr((i * size) % kOffsetWindow), data);
        sched.run();
      }
      elapsed = sched.now() - t0;
    } else {
      std::vector<DmaDescriptor> chain;
      for (std::uint32_t i = 0; i < opt.burst; ++i) {
        const std::uint64_t off = (static_cast<std::uint64_t>(i) * size) %
                                  (kOffsetWindow - size + 1);
        DmaDescriptor d{.length = size};
        if (opt.op == "write") {
          d.direction = DmaDirection::kWrite;
          d.src = drv.internal_global(off);
          d.dst = target_addr(off);
        } else if (opt.op == "read") {
          if (remote) {
            std::fprintf(stderr,
                         "error: remote reads are not supported by the "
                         "put-only fabric\n");
            return 2;
          }
          d.direction = DmaDirection::kRead;
          d.src = target_addr(off);
          d.dst = drv.internal_global(off);
        } else {  // pipelined
          d.direction = DmaDirection::kPipelined;
          d.src = drv.host_buffer_global(off);
          d.dst = target_addr(off);
        }
        chain.push_back(d);
      }
      auto t = drv.run_chain_reliable(
          std::move(chain),
          driver::SyncOptions{.deadline_ps = units::us(opt.deadline_us),
                              .max_attempts = opt.attempts});
      sched.run();
      const driver::ChainResult result = t.result();
      elapsed = result.elapsed;
      if (!result.status.is_ok()) {
        std::printf("  size %u: %s after %u attempt(s)\n", size,
                    result.status.to_string().c_str(), result.attempts);
      } else if (result.attempts > 1) {
        std::printf("  size %u: recovered on attempt %u\n", size,
                    result.attempts);
      }
    }
    table.add_row(
        {units::format_size(size), units::format_time(elapsed),
         TablePrinter::cell(units::gbytes_per_second(total, elapsed), 3) +
             " GB/s",
         units::format_time(elapsed / opt.burst)});
  }
  table.print();
  return report(opt, tca, sched.now(), &drv,
                [&tca](obs::MetricRegistry& reg) { tca.export_metrics(reg); });
}
