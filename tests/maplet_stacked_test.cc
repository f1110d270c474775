// Tests for the unified maplet API with PRS/NRS accounting (§2.4 / E8)
// and the stacked filter (§2.8 / E12).

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cuckoo/cuckoo_maplet.h"
#include "maplet/maplet.h"
#include "quotient/quotient_maplet.h"
#include "stacked/stacked_filter.h"
#include "staticf/bloomier_filter.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

std::vector<std::pair<uint64_t, uint64_t>> MakeEntries(
    const std::vector<uint64_t>& keys, uint64_t seed = 4) {
  SplitMix64 rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  entries.reserve(keys.size());
  for (uint64_t k : keys) entries.emplace_back(k, rng.NextBelow(256));
  return entries;
}

TEST(Maplet, DynamicMapletsHavePrsOnePlusEpsAndNrsEps) {
  const auto keys = GenerateDistinctKeys(20000);
  const auto absent = GenerateNegativeKeys(keys, 20000);
  const auto entries = MakeEntries(keys);

  QuotientMaplet quotient = QuotientMaplet::ForCapacity(20000, 0.01, 8);
  CuckooMaplet cuckoo(20000, 12, 8);
  for (Maplet* maplet : std::initializer_list<Maplet*>{&quotient, &cuckoo}) {
    for (const auto& [k, v] : entries) ASSERT_TRUE(maplet->Insert(k, v));
    const ResultSizes sizes = MeasureResultSizes(*maplet, keys, absent);
    EXPECT_GT(sizes.prs, 0.999) << maplet->Name();
    EXPECT_LT(sizes.prs, 1.05) << maplet->Name();   // 1 + eps.
    EXPECT_LT(sizes.nrs, 0.05) << maplet->Name();   // eps.
    EXPECT_GT(sizes.prs, sizes.nrs) << maplet->Name();
  }
}

TEST(Maplet, BloomierHasPrsAndNrsExactlyOne) {
  const auto keys = GenerateDistinctKeys(10000);
  const auto absent = GenerateNegativeKeys(keys, 10000);
  const auto entries = MakeEntries(keys);
  BloomierFilter maplet(entries, 8);
  const ResultSizes sizes = MeasureResultSizes(maplet, keys, absent);
  EXPECT_DOUBLE_EQ(sizes.prs, 1.0);
  EXPECT_DOUBLE_EQ(sizes.nrs, 1.0);
  // And the single returned value is exact for members.
  for (const auto& [k, v] : entries) {
    ASSERT_EQ(maplet.Lookup(k)[0], v);
  }
  EXPECT_FALSE(maplet.Insert(1, 1));  // Static: no new keys.
}

TEST(Maplet, TrueValueAlwaysPresentInLookup) {
  const auto keys = GenerateDistinctKeys(5000);
  const auto entries = MakeEntries(keys);
  QuotientMaplet quotient = QuotientMaplet::ForCapacity(5000, 0.01, 8);
  CuckooMaplet cuckoo(5000, 12, 8);
  for (Maplet* maplet : std::initializer_list<Maplet*>{&quotient, &cuckoo}) {
    for (const auto& [k, v] : entries) ASSERT_TRUE(maplet->Insert(k, v));
    for (const auto& [k, v] : entries) {
      const auto vals = maplet->Lookup(k);
      ASSERT_NE(std::find(vals.begin(), vals.end(), v), vals.end())
          << maplet->Name();
    }
  }
}

TEST(StackedFilter, HotNegativesGetExponentiallyFewerFps) {
  const auto positives = GenerateDistinctKeys(50000, 1);
  auto universe = GenerateNegativeKeys(positives, 60000, 2);
  const std::vector<uint64_t> hot(universe.begin(), universe.begin() + 10000);
  const std::vector<uint64_t> cold(universe.begin() + 10000, universe.end());

  BloomFilter plain(positives.size(), 10.0);
  for (uint64_t k : positives) plain.Insert(k);
  StackedFilter stacked(positives, hot, 10.0, 3);

  auto fpr = [](auto& f, const std::vector<uint64_t>& qs) {
    uint64_t fp = 0;
    for (uint64_t k : qs) fp += f.Contains(k);
    return static_cast<double>(fp) / qs.size();
  };
  const double plain_hot = fpr(plain, hot);
  const double stacked_hot = fpr(stacked, hot);
  const double stacked_cold = fpr(stacked, cold);
  // Hot negatives: the stack multiplies Bloom factors together.
  EXPECT_LT(stacked_hot * 20, plain_hot + 0.001);
  // Cold negatives keep roughly the single-filter rate.
  EXPECT_LT(stacked_cold, 0.05);
}

TEST(StackedFilter, NoFalseNegatives) {
  const auto positives = GenerateDistinctKeys(20000, 1);
  const auto hot = GenerateNegativeKeys(positives, 5000, 2);
  StackedFilter f(positives, hot, 12.0, 3);
  for (uint64_t k : positives) ASSERT_TRUE(f.Contains(k));
}

TEST(StackedFilter, SingleLayerDegeneratesToBloom) {
  const auto positives = GenerateDistinctKeys(1000, 1);
  StackedFilter f(positives, {}, 10.0, 1);
  EXPECT_EQ(f.num_layers(), 1u);
  for (uint64_t k : positives) ASSERT_TRUE(f.Contains(k));
}

}  // namespace
}  // namespace bbf
