// tca_chaos — seeded chaos-campaign runner for the TCA simulator.
//
// Draws deterministic random fault plans (cable flaps/cuts/retrains, BER
// bursts, stuck doorbells), composes each with a workload over a chosen
// fabric, and audits the system invariants tca::chaos enforces: byte
// conservation on every cable, no wedged tasks, route-table consistency,
// no unroutable traffic, monotonic simulated time, and same-seed replay
// determinism. Failing campaigns are ddmin-shrunk to a minimal reproducer
// rendered in the .campaign corpus format.
//
// Examples:
//   tca_chaos --seed 7 --campaigns 24
//   tca_chaos --campaigns 12 --topology torus:4x4 --workload halo
//   tca_chaos --seed 3 --campaigns 100 --replay-check
//   tca_chaos --corpus tests/chaos                # replay the corpus
//   tca_chaos --campaigns 50 --shrink-out /tmp/repro
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/parse.h"
#include "workload/workload.h"

using namespace tca;

namespace {

struct Options {
  std::uint64_t seed = 1;
  std::uint32_t campaigns = 8;
  std::vector<std::string> topologies = {"ring:8", "torus:4x4", "torus:2x2x2"};
  // Rotated through, one per campaign.
  std::vector<workload::Kind> workloads = {std::begin(workload::kAllKinds),
                                           std::end(workload::kAllKinds)};
  bool replay_check = false;     // run each campaign twice, compare hashes
  std::string corpus_dir;        // replay *.campaign files instead
  std::string shrink_out;        // write minimized reproducers here
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed S] [--campaigns N]\n"
               "          [--topology ring:N,torus:XxY[,...]]\n"
               "          [--workload all|allreduce|halo|pingpong|mixed]\n"
               "          [--replay-check] [--corpus DIR] [--shrink-out DIR]\n",
               argv0);
  std::exit(2);
}

std::vector<std::string> split_commas(const std::string& arg) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    const std::size_t comma = std::min(arg.find(',', pos), arg.size());
    if (comma > pos) out.push_back(arg.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

Options parse_args(int argc, char** argv) {
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
    if (a == "--seed") {
      next_number(&opt.seed);
    } else if (a == "--campaigns") {
      next_number(&opt.campaigns);
    } else if (a == "--topology") {
      opt.topologies = split_commas(next());
      if (opt.topologies.empty()) usage(argv[0]);
    } else if (a == "--workload") {
      const std::string name = next();
      if (name != "all") {
        auto kind = workload::parse(name);
        if (!kind.is_ok()) usage(argv[0]);
        opt.workloads = {kind.value()};
      }
    } else if (a == "--replay-check") {
      opt.replay_check = true;
    } else if (a == "--corpus") {
      opt.corpus_dir = next();
    } else if (a == "--shrink-out") {
      opt.shrink_out = next();
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

/// SplitMix64 step: decorrelates per-campaign seeds drawn from one CLI seed.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void print_result(const std::string& label, const chaos::CampaignSpec& spec,
                  const chaos::CampaignResult& r) {
  std::printf("%s seed=%llu topology=%s workload=%s: %s trace=%016llx "
              "metrics=%016llx ops_ok=%u ops_failed=%u failovers=%llu "
              "failbacks=%llu\n",
              label.c_str(), static_cast<unsigned long long>(spec.seed),
              chaos::topology_to_string(spec.topology).c_str(),
              workload::to_string(spec.workload),
              r.passed() ? "PASS" : "FAIL",
              static_cast<unsigned long long>(r.trace_hash),
              static_cast<unsigned long long>(r.metrics_hash), r.ops_ok,
              r.ops_failed, static_cast<unsigned long long>(r.failovers),
              static_cast<unsigned long long>(r.failbacks));
  for (const std::string& v : r.violations) {
    std::printf("  violation: %s\n", v.c_str());
  }
}

/// Shrinks a failing campaign, prints (and optionally saves) the minimal
/// reproducer.
void handle_failure(const chaos::CampaignSpec& spec, const Options& opt,
                    int index) {
  chaos::ShrinkOutcome shrunk = chaos::shrink_campaign(spec);
  std::printf("  shrink: %zu -> %zu events in %u runs%s\n",
              shrunk.original_events, shrunk.minimized_events, shrunk.runs,
              shrunk.reproduced ? "" : " (did not reproduce)");
  const std::string rendered = shrunk.minimized.to_string();
  std::printf("  minimized reproducer:\n");
  std::istringstream lines(rendered);
  for (std::string line; std::getline(lines, line);) {
    std::printf("    %s\n", line.c_str());
  }
  if (!opt.shrink_out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.shrink_out, ec);
    const std::string path = opt.shrink_out + "/repro-" +
                             std::to_string(index) + ".campaign";
    std::ofstream out(path);
    out << "# minimized by tca_chaos --shrink-out\n" << rendered;
    std::printf("  wrote %s\n", path.c_str());
  }
}

void handle_failure(const chaos::CampaignSpec& spec, const Options& opt,
                    int index);

int run_corpus(const Options& opt) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(opt.corpus_dir, ec)) {
    if (entry.path().extension() == ".campaign") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    std::fprintf(stderr, "error: cannot read corpus dir %s: %s\n",
                 opt.corpus_dir.c_str(), ec.message().c_str());
    return 2;
  }
  std::sort(files.begin(), files.end());
  int failures = 0;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto spec = chaos::CampaignSpec::parse(buffer.str());
    if (!spec.is_ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.string().c_str(),
                   spec.status().to_string().c_str());
      ++failures;
      continue;
    }
    const chaos::CampaignResult r = chaos::run_campaign(spec.value());
    print_result("corpus " + path.filename().string(), spec.value(), r);
    if (!r.passed()) {
      handle_failure(spec.value(), opt, failures);
      ++failures;
    }
  }
  std::printf("corpus: %zu campaigns, %d failed\n", files.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  if (!opt.corpus_dir.empty()) return run_corpus(opt);

  int failures = 0;
  for (std::uint32_t i = 0; i < opt.campaigns; ++i) {
    chaos::CampaignSpec spec;
    spec.seed = mix(opt.seed ^ (static_cast<std::uint64_t>(i) *
                                0x9e3779b97f4a7c15ull));
    auto topo =
        chaos::parse_topology(opt.topologies[i % opt.topologies.size()]);
    if (!topo.is_ok()) {
      std::fprintf(stderr, "error: %s\n", topo.status().to_string().c_str());
      return 2;
    }
    spec.topology = topo.value();
    spec.workload = opt.workloads[i % opt.workloads.size()];

    chaos::CampaignResult r = chaos::run_campaign(spec);
    bool failed = !r.passed();
    if (opt.replay_check && !failed) {
      const chaos::CampaignResult replay = chaos::run_campaign(spec);
      if (replay.trace_hash != r.trace_hash ||
          replay.metrics_hash != r.metrics_hash) {
        r.violations.push_back(
            "determinism: replay hashes differ (trace " +
            std::to_string(r.trace_hash) + " vs " +
            std::to_string(replay.trace_hash) + ", metrics " +
            std::to_string(r.metrics_hash) + " vs " +
            std::to_string(replay.metrics_hash) + ")");
        failed = true;
      }
    }
    print_result("campaign " + std::to_string(i), spec, r);
    if (failed) {
      ++failures;
      handle_failure(spec, opt, static_cast<int>(i));
    }
  }
  std::printf("%u campaigns, %d failed\n", opt.campaigns, failures);
  return failures == 0 ? 0 : 1;
}
