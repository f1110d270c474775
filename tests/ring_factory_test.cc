// Tests for the elastic hash-ring filter and the filter factory.

#include <cstdint>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "expandable/ring_filter.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

TEST(RingFilter, BasicRoundTrip) {
  RingFilter f(12);
  EXPECT_FALSE(f.Contains(9));
  EXPECT_TRUE(f.Insert(9));
  EXPECT_TRUE(f.Contains(9));
  EXPECT_TRUE(f.Erase(9));
  EXPECT_FALSE(f.Contains(9));
  EXPECT_FALSE(f.Erase(9));
}

TEST(RingFilter, ElasticGrowthNeverLosesKeys) {
  RingFilter f(12, /*segment_capacity=*/1024);
  const auto keys = GenerateDistinctKeys(100000, 121);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  // 100k keys over 1k-capacity segments: substantial elastic growth.
  EXPECT_GT(f.num_segments(), 50u);
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k)) << k;
}

TEST(RingFilter, FprStaysNearFingerprintRate) {
  RingFilter f(12, 2048);
  const auto keys = GenerateDistinctKeys(100000, 122);
  for (uint64_t k : keys) f.Insert(k);
  const auto negatives = GenerateNegativeKeys(keys, 100000, 123);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  // Bucket load ~ 100k/4M; FPR ~ load * 2^-12: tiny. No fingerprint bits
  // were sacrificed during the 50+ segment splits.
  EXPECT_LT(static_cast<double>(fp) / negatives.size(), 0.001);
}

TEST(RingFilter, OpsAreRingSearches) {
  RingFilter f(10, 512);
  const auto keys = GenerateDistinctKeys(5000, 124);
  for (uint64_t k : keys) f.Insert(k);
  const uint64_t before = f.ring_searches();
  for (uint64_t k : keys) f.Contains(k);
  // Every query consulted the ring exactly once.
  EXPECT_EQ(f.ring_searches() - before, keys.size());
}

TEST(RingFilter, ChurnAgainstReference) {
  RingFilter f(14, 512);
  std::unordered_map<uint64_t, uint64_t> ref;
  SplitMix64 rng(125);
  for (int op = 0; op < 30000; ++op) {
    const uint64_t key = rng.NextBelow(3000);
    if (rng.NextDouble() < 0.6) {
      ASSERT_TRUE(f.Insert(key));
      ++ref[key];
    } else {
      auto it = ref.find(key);
      if (it != ref.end()) {
        ASSERT_TRUE(f.Erase(key)) << op;
        if (--it->second == 0) ref.erase(it);
      }
    }
  }
  for (const auto& [k, c] : ref) ASSERT_TRUE(f.Contains(k));
}

TEST(Factory, EveryKnownNameConstructsAWorkingFilter) {
  const auto keys = GenerateDistinctKeys(3000, 126);
  const auto negatives = GenerateNegativeKeys(keys, 10000, 127);
  for (std::string_view name : KnownFilterNames()) {
    const auto filter = CreateFilter(name, keys.size(), 0.01);
    ASSERT_NE(filter, nullptr) << name;
    EXPECT_EQ(filter->Name().substr(0, 4), name.substr(0, 4)) << name;
    for (uint64_t k : keys) {
      ASSERT_TRUE(filter->Insert(k)) << name;
    }
    for (uint64_t k : keys) {
      ASSERT_TRUE(filter->Contains(k)) << name;
    }
    uint64_t fp = 0;
    for (uint64_t k : negatives) fp += filter->Contains(k);
    EXPECT_LT(static_cast<double>(fp) / negatives.size(), 0.08) << name;
  }
}

TEST(Factory, UnknownNameReturnsNull) {
  EXPECT_EQ(CreateFilter("no-such-filter", 100, 0.01), nullptr);
  EXPECT_EQ(CreateFilter("xor", 100, 0.01), nullptr);  // Static: no entry.
}

}  // namespace
}  // namespace bbf
