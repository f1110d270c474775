// Tests for static/algebraic filters: XOR, Bloomier, Ribbon.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "staticf/bloomier_filter.h"
#include "staticf/ribbon_filter.h"
#include "staticf/xor_filter.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

class StaticFilterSizes : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StaticFilterSizes, XorNoFalseNegatives) {
  const auto keys = GenerateDistinctKeys(GetParam());
  XorFilter f(keys, 12);
  EXPECT_EQ(f.NumKeys(), keys.size());
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
}

TEST_P(StaticFilterSizes, RibbonNoFalseNegatives) {
  const auto keys = GenerateDistinctKeys(GetParam());
  RibbonFilter f(keys, 12);
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
}

INSTANTIATE_TEST_SUITE_P(Sizes, StaticFilterSizes,
                         ::testing::Values(1, 10, 1000, 100000));

TEST(XorFilter, FprNearTwoToMinusR) {
  const auto keys = GenerateDistinctKeys(50000);
  XorFilter f(keys, 10);
  const auto negatives = GenerateNegativeKeys(keys, 200000);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  const double fpr = static_cast<double>(fp) / negatives.size();
  EXPECT_NEAR(fpr, 1.0 / 1024, 0.0012);
}

TEST(XorFilter, SpaceIsOnePointTwoThreeNTimesR) {
  const auto keys = GenerateDistinctKeys(100000);
  XorFilter f(keys, 10);
  const double bits_per_key =
      static_cast<double>(f.SpaceBits()) / keys.size();
  EXPECT_NEAR(bits_per_key, 12.3, 0.2);  // 1.23 * 10.
}

TEST(XorFilter, DuplicateKeysTolerated) {
  std::vector<uint64_t> keys = {1, 2, 3, 2, 1, 1};
  XorFilter f(keys, 12);
  EXPECT_EQ(f.NumKeys(), 3u);
  EXPECT_TRUE(f.Contains(1));
  EXPECT_TRUE(f.Contains(2));
  EXPECT_TRUE(f.Contains(3));
}

TEST(XorFilter, InsertRefusedAfterBuild) {
  XorFilter f(GenerateDistinctKeys(100), 8);
  EXPECT_FALSE(f.Insert(999));
  EXPECT_EQ(f.Class(), FilterClass::kStatic);
}

TEST(RibbonFilter, FprNearTwoToMinusR) {
  const auto keys = GenerateDistinctKeys(50000);
  RibbonFilter f(keys, 10);
  const auto negatives = GenerateNegativeKeys(keys, 200000);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  const double fpr = static_cast<double>(fp) / negatives.size();
  EXPECT_NEAR(fpr, 1.0 / 1024, 0.0012);
}

TEST(RibbonFilter, SpaceBeatsXorFactor) {
  const auto keys = GenerateDistinctKeys(100000);
  RibbonFilter ribbon(keys, 10);
  XorFilter xorf(keys, 10);
  const double ribbon_bpk =
      static_cast<double>(ribbon.SpaceBits()) / keys.size();
  const double xor_bpk = static_cast<double>(xorf.SpaceBits()) / keys.size();
  // ~1.05-1.15 * 10 + overhang: comfortably below the XOR filter's 12.3.
  EXPECT_LT(ribbon_bpk, 11.6);
  EXPECT_LT(ribbon_bpk, xor_bpk);
}

TEST(RibbonFilter, BuildsInFewAttempts) {
  const auto keys = GenerateDistinctKeys(20000);
  RibbonFilter f(keys, 8);
  EXPECT_LE(f.build_attempts(), 3);
}

TEST(BloomierFilter, ExactValuesForMembers) {
  SplitMix64 rng(8);
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  const auto keys = GenerateDistinctKeys(20000);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (uint64_t k : keys) {
    const uint64_t v = rng.NextBelow(256);
    entries.emplace_back(k, v);
    truth[k] = v;
  }
  BloomierFilter f(entries, 8);
  for (const auto& [k, v] : truth) {
    ASSERT_EQ(f.Get(k), v) << "PRS must be exactly 1 for members";
  }
}

TEST(BloomierFilter, UpdateChangesOnlyTargetKey) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  const auto keys = GenerateDistinctKeys(5000);
  for (uint64_t k : keys) entries.emplace_back(k, k & 0xFF);
  BloomierFilter f(entries, 8);
  // Update every 10th key and verify all keys afterwards.
  for (size_t i = 0; i < keys.size(); i += 10) f.Update(keys[i], 0xAA);
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t expect = (i % 10 == 0) ? 0xAA : (keys[i] & 0xFF);
    ASSERT_EQ(f.Get(keys[i]), expect) << i;
  }
}

TEST(BloomierFilter, RepeatedKeyKeepsItsLastValue) {
  // Two copies of a key share all three slots, so the peeler can never
  // free either: the build must drop the repeat, and the key ends with
  // the value a later Update would leave.
  BloomierFilter f({{1, 2}, {3, 4}, {1, 5}}, 8);
  EXPECT_EQ(f.NumKeys(), 2u);
  EXPECT_EQ(f.Get(uint64_t{1}), 5u);
  EXPECT_EQ(f.Get(uint64_t{3}), 4u);
}

TEST(BloomierFilter, SpaceProportionalToValueBits) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t k : GenerateDistinctKeys(10000)) entries.emplace_back(k, 1);
  BloomierFilter f(entries, 8);
  const double bits_per_key = static_cast<double>(f.SpaceBits()) / 10000;
  EXPECT_NEAR(bits_per_key, 1.23 * 10, 0.5);  // (8 value + 2 tau) * 1.23.
}

}  // namespace
}  // namespace bbf
