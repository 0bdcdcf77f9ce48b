#include "common/memory_tracker.h"

#include <gtest/gtest.h>

namespace sketchlink {
namespace {

TEST(MemoryTrackerTest, ShortStringHasNoHeap) {
  std::string sso = "short";
  EXPECT_EQ(StringHeapBytes(sso), 0u);
}

TEST(MemoryTrackerTest, LongStringCountsHeap) {
  std::string heap(100, 'x');
  EXPECT_GE(StringHeapBytes(heap), 101u);
  EXPECT_GE(StringFootprint(heap), sizeof(std::string) + 101);
}

TEST(FormatBytesTest, HumanReadableUnits) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MB");
  EXPECT_EQ(FormatBytes(uint64_t{5} << 30), "5.00 GB");
}

}  // namespace
}  // namespace sketchlink
