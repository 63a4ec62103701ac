// Allocation regression test for the TLP data path.
//
// Replaces the global operator new/delete of this binary with counting
// versions (the simulator libraries are linked statically, so the count
// covers every heap allocation the model makes). Once the payload pool,
// the queues and the scheduler's frame arena have warmed up on a first
// put, later puts must allocate nothing per TLP: what is left is a fixed
// per-chain cost, independent of the transfer size.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "api/tca.h"
#include "calib/calibration.h"
#include "sim/arena.h"

namespace {
bool g_counting = false;
std::uint64_t g_allocs = 0;

void* counted_malloc(std::size_t n) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t align) {
  if (g_counting) ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Out of line, so the compiler does not pair the malloc() and free()
// inside them with the operator new/delete calls it sees at call sites.
[[gnu::noinline]] void* operator new(std::size_t n) {
  return counted_malloc(n);
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return counted_malloc(n);
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
[[gnu::noinline]] void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace tca::api {
namespace {

/// Heap allocations of each of `puts` back-to-back pipelined DMA puts of
/// `bytes` from node 0's host memory into node 1's GPU.
std::vector<std::uint64_t> put_allocs(std::uint64_t bytes, int puts) {
  sim::Scheduler sched;
  Runtime rt(sched, TcaConfig{.spec = fabric::TopologySpec::ring(2)});
  const Buffer src = rt.alloc_host(0, bytes).value();
  const Buffer dst = rt.alloc_gpu(1, 0, bytes).value();
  std::vector<std::byte> data(bytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7);
  }
  rt.write(src, 0, data);

  std::vector<std::uint64_t> allocs;
  for (int i = 0; i < puts; ++i) {
    g_allocs = 0;
    g_counting = true;
    auto t = rt.memcpy_peer(dst, 0, src, 0, bytes);
    sched.run();
    g_counting = false;
    allocs.push_back(g_allocs);
    EXPECT_TRUE(t.done() && t.result().is_ok());
  }
  std::vector<std::byte> out(bytes);
  rt.read(dst, 0, out);
  EXPECT_EQ(out, data);
  return allocs;
}

TEST(AllocRegression, SteadyStatePutAllocatesNothingPerTlp) {
  if (TCA_ARENA_PASSTHROUGH) {
    GTEST_SKIP() << "coroutine frames bypass the frame arena under "
                    "AddressSanitizer, so every spawn allocates";
  }
  constexpr std::uint64_t kBytes = 1 << 20;
  constexpr std::uint64_t kTlps = kBytes / calib::kMaxPayloadBytes;
  // Descriptor table, driver and API bookkeeping of one chain.
  constexpr std::uint64_t kPerChainAllocs = 16;

  const auto one_mib = put_allocs(kBytes, 3);
  const auto two_mib = put_allocs(2 * kBytes, 3);
  // After one warm-up put the payload pool and the queues have grown to
  // their working size: far below one allocation per TLP (a data path that
  // allocates per TLP spends several on each of the 4,096 here).
  EXPECT_LE(one_mib[1], kTlps / 10);
  // What the second put still allocates is the scheduler's calendar
  // buckets being touched for the first time, bounded by the calendar's
  // size. From the third put on, a put costs its chain's fixed allocations
  // and not one more for twice the TLPs.
  EXPECT_LE(one_mib[2], kPerChainAllocs);
  EXPECT_EQ(one_mib[2], two_mib[2]);
}

}  // namespace
}  // namespace tca::api
