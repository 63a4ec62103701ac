// Extension bench: the production board's multi-channel DMAC.
//
// The paper's conclusion announces "a production version of the PEACH2
// board"; that board shipped a multi-channel DMA controller. This bench
// quantifies what the channels buy:
//   * small chains: concurrent channels overlap the fixed doorbell /
//     table-fetch / interrupt costs — near-linear speedup;
//   * large chains: the single Gen2 x8 wire is the bottleneck — channels
//     cannot multiply bandwidth, only hide setup latency;
//   * independent destinations: flows to different ring directions use
//     disjoint cables and scale.
#include "bench/bench_util.h"

using namespace tca;
using bench::DmaRig;
using peach2::DmaDescriptor;
using peach2::DmaDirection;

namespace {

/// `chains` concurrent chains of `descs` x `size` writes from node 0 to
/// `dest(c)`; returns total elapsed for all of them.
template <typename DestFn>
TimePs run_concurrent(std::uint32_t nodes, int chains, std::uint32_t descs,
                      std::uint32_t size, DestFn&& dest) {
  DmaRig rig(nodes);
  driver::Peach2Driver& drv = rig.cluster.driver(0);
  std::vector<sim::Task<driver::ChainResult>> tasks;
  for (int c = 0; c < chains; ++c) {
    std::vector<DmaDescriptor> chain;
    for (std::uint32_t i = 0; i < descs; ++i) {
      const std::uint64_t off =
          (static_cast<std::uint64_t>(c) * descs + i) * size % (1 << 20);
      chain.push_back({.src = drv.internal_global(off),
                       .dst = rig.cluster.global_host(dest(c), off),
                       .length = size,
                       .direction = DmaDirection::kWrite});
    }
    tasks.push_back(drv.run_chain(std::move(chain), c));
  }
  rig.sched.run();
  TimePs last = 0;
  for (auto& t : tasks) last = std::max(last, t.result().elapsed);
  return last;
}

}  // namespace

int main() {
  bench::ShapeCheck check;

  // --- Small chains: fixed costs overlap -------------------------------------
  TablePrinter small({"Chains", "1 x 4 KiB each, serial est.", "Concurrent",
                      "Speedup"});
  const TimePs one_small =
      run_concurrent(2, 1, 1, 4096, [](int) { return 1u; });
  double speedup4_small = 0;
  for (int chains : {1, 2, 4}) {
    const TimePs t = run_concurrent(2, chains, 1, 4096,
                                    [](int) { return 1u; });
    const double speedup =
        static_cast<double>(one_small) * chains / static_cast<double>(t);
    small.add_row({TablePrinter::cell(std::uint64_t(chains)),
                   units::format_time(one_small * chains),
                   units::format_time(t),
                   TablePrinter::cell(speedup, 2) + "x"});
    if (chains == 4) speedup4_small = speedup;
  }

  // --- Large chains: the wire is the bottleneck --------------------------------
  TablePrinter big({"Chains", "64 x 4 KiB each, serial est.", "Concurrent",
                    "Speedup"});
  const TimePs one_big =
      run_concurrent(2, 1, 64, 4096, [](int) { return 1u; });
  double speedup4_big = 0;
  for (int chains : {1, 2, 4}) {
    const TimePs t = run_concurrent(2, chains, 64, 4096,
                                    [](int) { return 1u; });
    const double speedup =
        static_cast<double>(one_big) * chains / static_cast<double>(t);
    big.add_row({TablePrinter::cell(std::uint64_t(chains)),
                 units::format_time(one_big * chains), units::format_time(t),
                 TablePrinter::cell(speedup, 2) + "x"});
    if (chains == 4) speedup4_big = speedup;
  }

  // --- Disjoint directions: East and West cables in parallel -------------------
  // In a 4-node ring, node1 is East of node0 and node3 is West: two chains
  // to opposite neighbors leave on different ports.
  const TimePs east_only =
      run_concurrent(4, 1, 64, 4096, [](int) { return 1u; });
  const TimePs both_ways = run_concurrent(
      4, 2, 64, 4096, [](int c) { return c == 0 ? 1u : 3u; });

  print_section("Extension: multi-channel DMAC (production PEACH2 board)");
  std::printf("Small chains (1 x 4 KiB): fixed costs dominate and overlap\n");
  small.print();
  std::printf("\nLarge chains (64 x 4 KiB): one Gen2 x8 wire bottleneck\n");
  big.print();
  std::printf("\nOpposite ring directions (64 x 4 KiB each): E+W cables in "
              "parallel\n  east only: %s   east+west concurrently: %s "
              "(per-chain)\n",
              units::format_time(east_only).c_str(),
              units::format_time(both_ways).c_str());

  check.expect(speedup4_small > 2.0,
               "4 small chains overlap fixed costs (>2x vs serial)");
  check.expect(speedup4_big < 1.5,
               "large chains stay wire-limited (channels don't add BW)");
  check.expect(both_ways < east_only * 12 / 10,
               "opposite-direction chains use disjoint cables");
  return check.finish();
}
