// Unit tests for the memory substrate: RangeMap decode and Dram storage.
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "memory/dram.h"
#include "memory/range_map.h"

namespace tca::mem {
namespace {

TEST(RangeMap, FindInsideAndOutside) {
  RangeMap<std::string> map;
  ASSERT_TRUE(map.add(0x1000, 0x100, "host").is_ok());
  ASSERT_TRUE(map.add(0x2000, 0x200, "gpu0").is_ok());

  ASSERT_NE(map.find(0x1000), nullptr);
  EXPECT_EQ(map.find(0x1000)->value, "host");
  EXPECT_EQ(map.find(0x10ff)->value, "host");
  EXPECT_EQ(map.find(0x1100), nullptr);  // one past the end
  EXPECT_EQ(map.find(0x0fff), nullptr);
  EXPECT_EQ(map.find(0x21ff)->value, "gpu0");
}

TEST(RangeMap, RejectsOverlaps) {
  RangeMap<int> map;
  ASSERT_TRUE(map.add(0x1000, 0x100, 1).is_ok());
  EXPECT_FALSE(map.add(0x1080, 0x100, 2).is_ok());  // tail overlap
  EXPECT_FALSE(map.add(0x0f80, 0x100, 3).is_ok());  // head overlap
  EXPECT_FALSE(map.add(0x1000, 0x100, 4).is_ok());  // exact duplicate
  EXPECT_FALSE(map.add(0x0800, 0x1000, 5).is_ok()); // engulfing
  EXPECT_TRUE(map.add(0x1100, 0x100, 6).is_ok());   // adjacent is fine
  EXPECT_TRUE(map.add(0x0f00, 0x100, 7).is_ok());   // adjacent below
}

TEST(RangeMap, RejectsEmptyAndWrapping) {
  RangeMap<int> map;
  EXPECT_FALSE(map.add(0x1000, 0, 1).is_ok());
  EXPECT_FALSE(map.add(~0ull - 10, 100, 2).is_ok());
}

TEST(RangeMap, FindSpanRequiresFullContainment) {
  RangeMap<int> map;
  ASSERT_TRUE(map.add(0x1000, 0x100, 1).is_ok());
  EXPECT_NE(map.find_span(0x1000, 0x100), nullptr);
  EXPECT_NE(map.find_span(0x10f0, 0x10), nullptr);
  EXPECT_EQ(map.find_span(0x10f0, 0x11), nullptr);  // crosses the boundary
  EXPECT_EQ(map.find_span(0x2000, 1), nullptr);
  EXPECT_EQ(map.find_span(0x10f0, ~0ull - 0x10), nullptr);  // end wraps
}

TEST(RangeMap, RemoveByBase) {
  RangeMap<int> map;
  ASSERT_TRUE(map.add(0x1000, 0x100, 1).is_ok());
  EXPECT_TRUE(map.remove(0x1000));
  EXPECT_FALSE(map.remove(0x1000));
  EXPECT_EQ(map.find(0x1000), nullptr);
  EXPECT_TRUE(map.add(0x1000, 0x100, 2).is_ok());  // reusable after removal
}

TEST(RangeMap, IterationIsOrdered) {
  RangeMap<int> map;
  ASSERT_TRUE(map.add(0x3000, 0x100, 3).is_ok());
  ASSERT_TRUE(map.add(0x1000, 0x100, 1).is_ok());
  ASSERT_TRUE(map.add(0x2000, 0x100, 2).is_ok());
  std::vector<int> order;
  for (const auto& [base, range] : map) order.push_back(range.value);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Dram, ReadBackWhatWasWritten) {
  Dram dram(4096);
  Rng rng(5);
  std::vector<std::byte> data(512);
  rng.fill(data);
  dram.write(128, data);

  std::vector<std::byte> out(512);
  dram.read(128, out);
  EXPECT_EQ(out, data);
}

TEST(Dram, ViewsAliasStorage) {
  Dram dram(1024);
  std::vector<std::byte> data{std::byte{0xAA}, std::byte{0xBB}};
  dram.write(10, data);
  auto view = dram.view(10, 2);
  EXPECT_EQ(view[0], std::byte{0xAA});
  EXPECT_EQ(view[1], std::byte{0xBB});

  // A later write() shows through the view taken before it.
  std::vector<std::byte> over{std::byte{0xCC}};
  dram.write(10, over);
  EXPECT_EQ(view[0], std::byte{0xCC});
  EXPECT_EQ(view[1], std::byte{0xBB});
}

TEST(Dram, UntouchedBytesReadAsZero) {
  Dram small(64);
  for (auto b : small.view(0, 64)) EXPECT_EQ(b, std::byte{0});

  // A K20's 5 GiB, so offsets need more than 32 bits: the last byte is as
  // readable (and as zero) as the first, and a write at the very end neither
  // wraps nor disturbs its neighbours.
  const std::uint64_t size = 5ull << 30;
  Dram big(size);
  ASSERT_EQ(big.size(), size);
  EXPECT_EQ(big.view(0, 1)[0], std::byte{0});
  EXPECT_EQ(big.view(size - 1, 1)[0], std::byte{0});
  std::vector<std::byte> tail{std::byte{0x5A}};
  big.write(size - 1, tail);
  std::vector<std::byte> out(2);
  big.read(size - 2, out);
  EXPECT_EQ(out, (std::vector<std::byte>{std::byte{0}, std::byte{0x5A}}));
}

// Every out-of-range access trips the check, including the first three,
// where offset + len wraps past 2^64 back below the size.
TEST(DramDeathTest, RangeChecksDoNotWrap) {
  Dram dram(4096);
  std::vector<std::byte> four(4);
  EXPECT_DEATH(dram.write(~0ull - 1, four), "TCA_ASSERT failed");
  EXPECT_DEATH(dram.read(~0ull - 1, four), "TCA_ASSERT failed");
  EXPECT_DEATH((void)dram.view(16, ~0ull - 8), "TCA_ASSERT failed");
  EXPECT_DEATH((void)dram.view(4097, 0), "TCA_ASSERT failed");
}

TEST(Dram, ZeroSizedIsEmpty) {
  Dram dram(0);
  EXPECT_EQ(dram.size(), 0u);
  EXPECT_TRUE(dram.view(0, 0).empty());
}

/// Resident set size in bytes, from /proc/self/statm (second field, pages).
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t total_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(Dram, ResidentMemoryTracksTouchedPagesOnly) {
  const std::uint64_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  Dram dram(1ull << 30);
  std::vector<std::byte> block(4096, std::byte{0x11});
  dram.write(512ull << 20, block);
  EXPECT_EQ(dram.view(512ull << 20, 1)[0], std::byte{0x11});
  const std::uint64_t after = resident_bytes();
  const std::uint64_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, 8ull << 20)
      << "a 1 GiB Dram with one 4 KiB block written grew RSS by " << grown
      << " bytes";
}

}  // namespace
}  // namespace tca::mem
