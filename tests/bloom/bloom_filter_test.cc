#include "bloom/bloom_filter.h"

#include <gtest/gtest.h>

#include <string>

namespace sketchlink {
namespace {

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter = BloomFilter::WithCapacity(1000, 0.05);
  for (int i = 0; i < 1000; ++i) {
    filter.Insert("key" + std::to_string(i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(filter.MayContain("key" + std::to_string(i))) << i;
  }
}

TEST(BloomFilterTest, FalsePositiveRateNearTarget) {
  const double target_fp = 0.05;
  BloomFilter filter = BloomFilter::WithCapacity(5000, target_fp);
  for (int i = 0; i < 5000; ++i) {
    filter.Insert("present" + std::to_string(i));
  }
  int false_positives = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (filter.MayContain("absent" + std::to_string(i))) ++false_positives;
  }
  const double observed = static_cast<double>(false_positives) / probes;
  EXPECT_LT(observed, target_fp * 2.0);
  // Sanity: a filter at capacity should not be trivially empty either.
  EXPECT_GT(filter.CountSetBits(), 0u);
}

TEST(BloomFilterTest, EmptyFilterRejectsEverything) {
  BloomFilter filter(1024, 4);
  EXPECT_FALSE(filter.MayContain("anything"));
  EXPECT_EQ(filter.CountSetBits(), 0u);
  EXPECT_EQ(filter.insert_count(), 0u);
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter filter(1024, 4);
  filter.Insert("a");
  filter.Insert("b");
  EXPECT_TRUE(filter.MayContain("a"));
  filter.Clear();
  EXPECT_FALSE(filter.MayContain("a"));
  EXPECT_EQ(filter.insert_count(), 0u);
}

TEST(BloomFilterTest, PaperGeometry32kBitsFor5kKeys) {
  // The paper sizes SkipBloom's filters at 32,000 bits for 5,000 keys with
  // fp = 0.05; verify that load produces an acceptable observed rate.
  BloomFilter filter(32000, 4);
  for (int i = 0; i < 5000; ++i) {
    filter.Insert("k" + std::to_string(i));
  }
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (filter.MayContain("other" + std::to_string(i))) ++fp;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.08);
}

TEST(BloomFilterTest, EncodeDecodeRoundTrip) {
  BloomFilter filter(4096, 5, 99);
  for (int i = 0; i < 200; ++i) filter.Insert("item" + std::to_string(i));
  std::string encoded;
  filter.EncodeTo(&encoded);
  std::string_view input(encoded);
  auto decoded = BloomFilter::DecodeFrom(&input);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(decoded->insert_count(), filter.insert_count());
  EXPECT_EQ(decoded->num_bits(), filter.num_bits());
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(decoded->MayContain("item" + std::to_string(i)));
  }
}

TEST(BloomFilterTest, DecodeTruncatedFails) {
  BloomFilter filter(1024, 3);
  filter.Insert("x");
  std::string encoded;
  filter.EncodeTo(&encoded);
  encoded.resize(encoded.size() / 2);
  std::string_view input(encoded);
  EXPECT_TRUE(BloomFilter::DecodeFrom(&input).status().IsCorruption());
}

TEST(BloomFilterTest, MemoryUsageScalesWithBits) {
  BloomFilter small(1024, 4);
  BloomFilter large(1024 * 64, 4);
  EXPECT_GT(large.ApproximateMemoryUsage(), small.ApproximateMemoryUsage());
}

class BloomFpSweep : public ::testing::TestWithParam<double> {};

TEST_P(BloomFpSweep, ObservedRateTracksConfiguredRate) {
  const double target = GetParam();
  BloomFilter filter = BloomFilter::WithCapacity(2000, target, 1234);
  for (int i = 0; i < 2000; ++i) filter.Insert("in" + std::to_string(i));
  int fp = 0;
  const int probes = 30000;
  for (int i = 0; i < probes; ++i) {
    if (filter.MayContain("out" + std::to_string(i))) ++fp;
  }
  const double observed = static_cast<double>(fp) / probes;
  EXPECT_LT(observed, target * 2.5 + 0.001) << "target " << target;
}

INSTANTIATE_TEST_SUITE_P(Rates, BloomFpSweep,
                         ::testing::Values(0.2, 0.1, 0.05, 0.01, 0.001));

}  // namespace
}  // namespace sketchlink
