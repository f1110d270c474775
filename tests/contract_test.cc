// Cross-filter contract tests: every point filter behind the Filter
// interface must satisfy the same basic guarantees (no false negatives,
// sane accounting, Class()-consistent Erase behaviour). One parameterized
// driver covers the whole zoo.

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/bloom_filter.h"
#include "core/registry.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "quotient/quotient_filter.h"
#include "test_seed.h"
#include "workload/generators.h"

namespace bbf {
namespace {

constexpr uint64_t kN = 8000;
constexpr double kEpsilon = 0.01;

struct FilterCase {
  std::string name;
  std::function<std::unique_ptr<Filter>()> make;
};

/// The contract zoo is driven by the registry, not a hand-maintained
/// list: every factory-constructible family automatically enters the
/// contract the moment it is registered. The composed ShardedFilter
/// wrapper is appended by hand (it is a combinator over a factory, not a
/// registered family itself).
std::vector<FilterCase> AllDynamicish() {
  std::vector<FilterCase> cases;
  for (std::string_view tag : RegisteredFilterTags()) {
    const FilterEntry* entry = FindFilterEntry(tag);
    if (entry == nullptr || !entry->in_factory) continue;  // Snapshot-only.
    cases.push_back({std::string(tag), [tag] {
                       return CreateFilter(tag, kN, kEpsilon);
                     }});
  }
  cases.push_back({"sharded-cuckoo", [] {
                     return std::make_unique<ShardedFilter>(
                         kN, 4, [](uint64_t capacity) {
                           return std::make_unique<CuckooFilter>(capacity, 12);
                         });
                   }});
  return cases;
}

// Tripwire: the registry's factory surface IS the contract's coverage,
// so a family added to registry.cc without updating this list fails here
// — the reviewer then confirms the new family really passes the contract
// (it does, automatically, via AllDynamicish) and records it below.
TEST(ContractCoverage, FactoryNamesMatchExpectedList) {
  const std::vector<std::string_view> expected = {
      "adaptive-cuckoo", "adaptive-quotient", "blocked-bloom",     "bloom",
      "chained-quotient", "counting-bloom",   "counting-quotient", "cuckoo",
      "dleft",            "dleft-counting",   "expanding-quotient",
      "memento",          "prefix",           "quotient",          "ring",
      "rsqf",             "scalable-bloom",   "taffy",
      "vector-quotient",
  };
  const std::vector<std::string_view> actual = KnownFilterNames();
  EXPECT_EQ(actual, expected)
      << "factory surface changed: update this tripwire AND confirm the "
         "contract + FPR regression suites cover the new family";
}

class FilterContract : public ::testing::TestWithParam<size_t> {
 protected:
  FilterCase Case() const { return AllDynamicish()[GetParam()]; }
};

TEST_P(FilterContract, NoFalseNegatives) {
  const auto filter = Case().make();
  const auto keys = GenerateDistinctKeys(kN, 101);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k)) << Case().name;
  for (uint64_t k : keys) {
    ASSERT_TRUE(filter->Contains(k)) << Case().name << " lost " << k;
  }
}

TEST_P(FilterContract, NumKeysTracksInserts) {
  const auto filter = Case().make();
  const auto keys = GenerateDistinctKeys(1000, 102);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k));
  EXPECT_EQ(filter->NumKeys(), keys.size()) << Case().name;
}

TEST_P(FilterContract, FprBelowTenPercent) {
  const auto filter = Case().make();
  const auto keys = GenerateDistinctKeys(kN, 103);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k));
  const auto negatives = GenerateNegativeKeys(keys, 20000, 104);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += filter->Contains(k);
  EXPECT_LT(static_cast<double>(fp) / negatives.size(), 0.1) << Case().name;
}

TEST_P(FilterContract, SpaceAccountingIsPositiveAndFinite) {
  const auto filter = Case().make();
  filter->Insert(1);
  EXPECT_GT(filter->SpaceBits(), 0u) << Case().name;
  EXPECT_LT(filter->BitsPerKey(), 1e7) << Case().name;
}

TEST_P(FilterContract, EraseConsistentWithClass) {
  const auto filter = Case().make();
  const auto keys = GenerateDistinctKeys(500, 105);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k));
  const bool erased = filter->Erase(keys[0]);
  if (filter->Class() == FilterClass::kDynamic) {
    EXPECT_TRUE(erased) << Case().name
                        << ": dynamic filters must support Erase";
    EXPECT_EQ(filter->NumKeys(), keys.size() - 1) << Case().name;
  } else {
    EXPECT_FALSE(erased) << Case().name
                         << ": non-dynamic filters must refuse Erase";
  }
}

TEST_P(FilterContract, BatchLookupMatchesScalarLookup) {
  const auto filter = Case().make();
  const auto keys = GenerateDistinctKeys(2000, 106);
  filter->InsertMany(keys);
  const auto negatives = GenerateNegativeKeys(keys, 2000, 107);
  std::vector<uint64_t> queries = keys;
  queries.insert(queries.end(), negatives.begin(), negatives.end());
  std::vector<uint8_t> batched(queries.size());
  filter->ContainsMany(queries, batched.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(filter->Contains(queries[i]), batched[i] != 0)
        << Case().name << " diverged on query " << i;
  }
}

TEST_P(FilterContract, CountIsAtLeastMultiplicity) {
  const auto filter = Case().make();
  uint64_t inserted = 0;
  for (int i = 0; i < 5; ++i) inserted += filter->Insert(777);
  EXPECT_GE(filter->Count(777), std::min<uint64_t>(inserted, 1))
      << Case().name;
}

// The invariant hook (DESIGN.md §8) on live filters: what every load
// checks before committing must also hold after each batch of operations,
// so a bug that breaks a family's structure fails where it happens.
TEST_P(FilterContract, InvariantsHoldAfterEveryOpBatch) {
  const auto filter = Case().make();
  const auto keys = GenerateDistinctKeys(2000, 108);
  filter->InsertMany(keys);
  ASSERT_TRUE(filter->CheckInvariants()) << Case().name << " after inserts";
  const FilterEntry* entry = FindFilterEntry(Case().name);
  if (entry != nullptr && entry->caps.supports_erase) {
    for (size_t i = 0; i < keys.size(); i += 2) filter->Erase(keys[i]);
    ASSERT_TRUE(filter->CheckInvariants()) << Case().name << " after erases";
  }
  std::stringstream snapshot;
  ASSERT_TRUE(filter->Save(snapshot)) << Case().name;
  const auto loaded = Case().make();
  ASSERT_TRUE(loaded->Load(snapshot)) << Case().name;
  EXPECT_TRUE(loaded->CheckInvariants()) << Case().name << " after a reload";
}

INSTANTIATE_TEST_SUITE_P(
    AllFilters, FilterContract,
    ::testing::Range<size_t>(0, AllDynamicish().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      std::string name = AllDynamicish()[info.param].name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- InsertMany partial-failure contract at capacity -------------------------
//
// Each hot family, sized far below the key count so inserts start failing
// mid-batch. The contract: InsertMany's returned count equals the count a
// sequential-Insert twin reports (batch paths consume hashing and kick RNG
// in the same per-filter order), and every key the twin acknowledged is
// queryable in the batch-built filter — the count is never an overcount of
// what the filter actually serves.
std::vector<FilterCase> HotFamiliesAtCapacity() {
  return {
      // Bloom variants never refuse; their "capacity" is an FPR design
      // point, so the contract degenerates to count == keys.size().
      {"bloom", [] { return std::make_unique<BloomFilter>(64, 8.0); }},
      {"blocked-bloom",
       [] { return std::make_unique<BlockedBloomFilter>(64, 8.0); }},
      {"cuckoo", [] { return std::make_unique<CuckooFilter>(64, 8); }},
      {"quotient", [] { return std::make_unique<QuotientFilter>(6, 8); }},
      {"sharded-cuckoo",
       [] {
         // Default chain policy with tiny shards: the batch path chains
         // generations mid-batch and eventually rejects.
         SaturationConfig config;
         config.max_generations = 2;
         return std::make_unique<ShardedFilter>(
             64, 4,
             [](uint64_t capacity) {
               return std::make_unique<CuckooFilter>(capacity, 8);
             },
             config);
       }},
  };
}

TEST(InsertManyAtCapacity, CountMatchesSequentialTwinAndQueryability) {
  const uint64_t seed = TestSeed(600);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(1000, seed);
  for (const FilterCase& c : HotFamiliesAtCapacity()) {
    SCOPED_TRACE(c.name);
    auto twin = c.make();
    std::vector<uint64_t> acked;
    for (uint64_t k : keys) {
      if (twin->Insert(k)) acked.push_back(k);
    }
    ASSERT_GT(acked.size(), 0u);
    if (c.name != "bloom" && c.name != "blocked-bloom") {
      ASSERT_LT(acked.size(), keys.size())
          << "sizing must force partial failure";
    }

    auto batched = c.make();
    EXPECT_EQ(batched->InsertMany(keys), acked.size());
    EXPECT_EQ(batched->NumKeys(), twin->NumKeys());
    // Every key the count claims is actually queryable afterward.
    uint64_t missing = 0;
    for (uint64_t k : acked) missing += !batched->Contains(k);
    EXPECT_EQ(missing, 0u);
  }
}

}  // namespace
}  // namespace bbf
