// Tests for the range filters (§2.5 / E7): SuRF, Rosetta, SNARF, Grafite,
// the prefix-Bloom baseline, and the dynamic Memento filter (DESIGN.md
// §16). The central property is shared: no range query overlapping a
// stored key may return false — including under interleaved insert/query
// schedules where the static families must rebuild mid-stream.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/key.h"
#include "range/grafite.h"
#include "range/memento.h"
#include "range/prefix_bloom_range.h"
#include "range/range_filter.h"
#include "range/rosetta.h"
#include "range/snarf.h"
#include "range/surf.h"
#include "test_seed.h"
#include "util/bits.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

std::vector<uint64_t> SortedKeys(uint64_t n, uint64_t seed = 3) {
  auto keys = GenerateDistinctKeys(n, seed);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Factory so the no-false-negative property can run over every filter.
enum class Kind { kPrefixBloom, kGrafite, kSnarf, kRosetta, kSurfBase,
                  kSurfHash, kSurfReal, kMemento };

std::unique_ptr<RangeFilter> MakeFilter(Kind kind,
                                        const std::vector<uint64_t>& keys) {
  switch (kind) {
    case Kind::kMemento: {
      auto f = std::make_unique<MementoFilter>(
          MementoFilter::ForCapacity(std::max<uint64_t>(keys.size(), 1), 0.01));
      for (uint64_t k : keys) f->AddKey(k);
      return f;
    }
    case Kind::kPrefixBloom:
      return std::make_unique<PrefixBloomRangeFilter>(keys, 48, 12.0);
    case Kind::kGrafite:
      return std::make_unique<GrafiteRangeFilter>(keys, 36);
    case Kind::kSnarf:
      return std::make_unique<SnarfRangeFilter>(keys, 6);
    case Kind::kRosetta:
      // 5 levels cover dyadic nodes of ranges up to 16; ~5 bits/key/level.
      return std::make_unique<RosettaRangeFilter>(keys, 5, 24.0);
    case Kind::kSurfBase:
      return std::make_unique<SurfFilter>(keys, SurfFilter::SuffixMode::kBase,
                                          0);
    case Kind::kSurfHash:
      return std::make_unique<SurfFilter>(keys, SurfFilter::SuffixMode::kHash,
                                          8);
    case Kind::kSurfReal:
      return std::make_unique<SurfFilter>(keys, SurfFilter::SuffixMode::kReal,
                                          8);
  }
  return nullptr;
}

class RangeFilterProperty : public ::testing::TestWithParam<Kind> {};

TEST_P(RangeFilterProperty, NoFalseNegativesOnPoints) {
  const auto keys = SortedKeys(5000);
  const auto f = MakeFilter(GetParam(), keys);
  for (uint64_t k : keys) {
    ASSERT_TRUE(f->MayContain(k)) << f->Name() << " missed " << k;
  }
}

TEST_P(RangeFilterProperty, NoFalseNegativesOnRanges) {
  const auto keys = SortedKeys(3000);
  const auto f = MakeFilter(GetParam(), keys);
  SplitMix64 rng(5);
  // Ranges guaranteed to contain at least one key.
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = keys[rng.NextBelow(keys.size())];
    const uint64_t span = rng.NextBelow(1u << 20);
    const uint64_t lo = k - std::min(k, rng.NextBelow(span + 1));
    uint64_t hi = lo + span;
    if (hi < lo) hi = ~uint64_t{0};
    if (k < lo || k > hi) continue;
    ASSERT_TRUE(f->MayContainRange(lo, hi))
        << f->Name() << " [" << lo << "," << hi << "] containing " << k;
  }
}

TEST_P(RangeFilterProperty, EmptyRangesMostlyRejected) {
  const auto keys = SortedKeys(3000);
  const auto f = MakeFilter(GetParam(), keys);
  // Probe short ranges just above each key; truly empty ones should be
  // rejected most of the time by every filter at these budgets.
  std::set<uint64_t> key_set(keys.begin(), keys.end());
  SplitMix64 rng(6);
  uint64_t fp = 0;
  uint64_t total = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t lo = rng.Next();
    const uint64_t hi = lo + 15;
    if (hi < lo) continue;
    const auto it = key_set.lower_bound(lo);
    if (it != key_set.end() && *it <= hi) continue;  // Not empty.
    ++total;
    fp += f->MayContainRange(lo, hi);
  }
  ASSERT_GT(total, 10000u);
  EXPECT_LT(static_cast<double>(fp) / total, 0.15) << f->Name();
}

TEST_P(RangeFilterProperty, PointQueryMatchesRangeOfOne) {
  const auto keys = SortedKeys(4000, 21);
  const auto f = MakeFilter(GetParam(), keys);
  // SuRF's suffixed modes answer a point query through MayContainKey,
  // which re-checks suffix bits a range traversal cannot use — the point
  // surface may be strictly sharper than the degenerate range [k, k].
  // Everywhere else the two entry points must agree bit-for-bit.
  const bool suffix_sharpened =
      GetParam() == Kind::kSurfHash || GetParam() == Kind::kSurfReal;
  for (uint64_t k : keys) {
    ASSERT_TRUE(f->MayContain(k)) << f->Name();
    ASSERT_TRUE(f->MayContainRange(k, k)) << f->Name();
  }
  SplitMix64 rng(22);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = rng.Next();
    const bool point = f->MayContain(k);
    const bool range = f->MayContainRange(k, k);
    if (suffix_sharpened) {
      // Sharper is allowed, looser is not: point=true must imply range=true.
      ASSERT_LE(point, range) << f->Name() << " key " << k;
    } else {
      ASSERT_EQ(point, range) << f->Name() << " key " << k;
    }
  }
}

TEST_P(RangeFilterProperty, InterleavedScheduleHasZeroFalseNegatives) {
  const uint64_t seed = TestSeed(0x1C5);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(4000, seed);
  const auto ops = GenerateInterleavedRangeOps(
      keys, /*queries_per_insert=*/2.0, /*point_frac=*/0.5,
      /*range_len=*/64, ~uint64_t{0}, seed + 1);
  const bool dynamic = GetParam() == Kind::kMemento;
  // Static families answer for the keys as of their last rebuild; the
  // dynamic family must answer for every key the moment it is added.
  constexpr size_t kRebuildEvery = 512;

  std::set<uint64_t> inserted;
  std::vector<uint64_t> inserted_v;
  std::set<uint64_t> visible;
  std::unique_ptr<RangeFilter> filter;
  MementoFilter* memento = nullptr;
  if (dynamic) {
    auto f = std::make_unique<MementoFilter>(
        MementoFilter::ForCapacity(keys.size(), 0.01));
    memento = f.get();
    filter = std::move(f);
  }
  size_t since_rebuild = 0;
  SplitMix64 rng(seed + 2);
  for (const RangeOp& op : ops) {
    switch (op.kind) {
      case RangeOp::Kind::kInsert:
        inserted.insert(op.lo);
        inserted_v.push_back(op.lo);
        if (dynamic) {
          ASSERT_TRUE(memento->AddKey(op.lo));
          visible.insert(op.lo);
        } else if (++since_rebuild >= kRebuildEvery || !filter) {
          std::vector<uint64_t> sorted(inserted.begin(), inserted.end());
          filter = MakeFilter(GetParam(), sorted);
          visible = inserted;
          since_rebuild = 0;
        }
        break;
      case RangeOp::Kind::kPointQuery:
      case RangeOp::Kind::kRangeQuery: {
        const auto it = visible.lower_bound(op.lo);
        if (it != visible.end() && *it <= op.hi) {
          ASSERT_TRUE(filter->MayContainRange(op.lo, op.hi))
              << filter->Name() << " lost [" << op.lo << "," << op.hi << "]";
        } else {
          filter->MayContainRange(op.lo, op.hi);  // FP allowed, crash not.
        }
        break;
      }
    }
    // Uniform queries almost never straddle a key, so add direct pressure:
    // a short range around a random visible key must always be admitted.
    if (!visible.empty() && rng.NextBelow(8) == 0) {
      const uint64_t k = inserted_v[rng.NextBelow(inserted_v.size())];
      if (visible.contains(k)) {
        const uint64_t lo = k - std::min(k, rng.NextBelow(64));
        uint64_t hi = k + rng.NextBelow(64);
        if (hi < k) hi = ~uint64_t{0};
        ASSERT_TRUE(filter->MayContainRange(lo, hi))
            << filter->Name() << " lost key " << k;
        ASSERT_TRUE(filter->MayContain(k)) << filter->Name() << " " << k;
      }
    }
  }
  EXPECT_EQ(inserted.size(), keys.size());
  if (dynamic) {
    EXPECT_EQ(memento->NumKeys(), keys.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFilters, RangeFilterProperty,
    ::testing::Values(Kind::kPrefixBloom, Kind::kGrafite, Kind::kSnarf,
                      Kind::kRosetta, Kind::kSurfBase, Kind::kSurfHash,
                      Kind::kSurfReal, Kind::kMemento),
    [](const ::testing::TestParamInfo<Kind>& info) {
      switch (info.param) {
        case Kind::kPrefixBloom: return "PrefixBloom";
        case Kind::kGrafite: return "Grafite";
        case Kind::kSnarf: return "Snarf";
        case Kind::kRosetta: return "Rosetta";
        case Kind::kSurfBase: return "SurfBase";
        case Kind::kSurfHash: return "SurfHash";
        case Kind::kSurfReal: return "SurfReal";
        case Kind::kMemento: return "Memento";
      }
      return "Unknown";
    });

// --- Filter-specific behaviour --------------------------------------------

TEST(Surf, PointQueriesWithHashSuffixSharpenFpr) {
  const auto keys = SortedKeys(20000);
  SurfFilter base(keys, SurfFilter::SuffixMode::kBase, 0);
  SurfFilter hash(keys, SurfFilter::SuffixMode::kHash, 8);
  const auto negatives = GenerateNegativeKeys(keys, 50000);
  uint64_t fp_base = 0;
  uint64_t fp_hash = 0;
  for (uint64_t k : negatives) {
    fp_base += base.MayContain(k);
    fp_hash += hash.MayContain(k);
  }
  // 8 suffix bits must cut point FPs by roughly 2^8.
  EXPECT_LT(fp_hash * 20, fp_base + 100);
}

TEST(Surf, StringKeysAndPrefixRelations) {
  std::vector<std::string> keys = {"app", "apple", "applet", "banana",
                                   "band", "bandit"};
  std::sort(keys.begin(), keys.end());
  SurfFilter f(keys, SurfFilter::SuffixMode::kReal, 8);
  for (const auto& k : keys) {
    EXPECT_TRUE(f.MayContainKey(k)) << k;
  }
  EXPECT_FALSE(f.MayContainKey("zebra"));
  EXPECT_FALSE(f.MayContainKey("cherry"));
  // Range over strings.
  EXPECT_TRUE(f.MayContainStringRange("bana", "bandz"));
  EXPECT_FALSE(f.MayContainStringRange("c", "z"));
}

TEST(Surf, AdversarialLongCommonPrefixesBlowUpSpace) {
  // The paper: "an adversarial workload (each pair of keys produces a
  // unique long prefix) can destroy SuRF's space efficiency."
  std::vector<uint64_t> benign = SortedKeys(4000, 7);
  // Adversarial: keys agreeing on high 48 bits pairwise chains.
  std::vector<uint64_t> adversarial;
  SplitMix64 rng(8);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t base = rng.Next() & ~LowMask(16);
    adversarial.push_back(base);
    adversarial.push_back(base | 1);  // Twin differing at the last bits.
  }
  std::sort(adversarial.begin(), adversarial.end());
  adversarial.erase(std::unique(adversarial.begin(), adversarial.end()),
                    adversarial.end());
  SurfFilter fb(benign, SurfFilter::SuffixMode::kBase, 0);
  SurfFilter fa(adversarial, SurfFilter::SuffixMode::kBase, 0);
  const double benign_bpk =
      static_cast<double>(fb.SpaceBits()) / benign.size();
  const double adv_bpk =
      static_cast<double>(fa.SpaceBits()) / adversarial.size();
  EXPECT_GT(adv_bpk, benign_bpk * 2);
}

TEST(Grafite, RobustUnderCorrelatedQueries) {
  // Queries starting right after existing keys — the workload that breaks
  // trie-based filters — should not degrade Grafite beyond its bound.
  const auto keys = SortedKeys(20000, 9);
  GrafiteRangeFilter f(keys, 38);
  std::set<uint64_t> key_set(keys.begin(), keys.end());
  const auto queries =
      GenerateRangeQueries(keys, 20000, 64, /*correlated=*/true,
                           ~uint64_t{0});
  uint64_t fp = 0;
  uint64_t total = 0;
  for (const auto& [lo, hi] : queries) {
    const auto it = key_set.lower_bound(lo);
    if (it != key_set.end() && *it <= hi) continue;
    ++total;
    fp += f.MayContainRange(lo, hi);
  }
  ASSERT_GT(total, 1000u);
  EXPECT_LT(static_cast<double>(fp) / total, 0.05);
}

TEST(Rosetta, FprGrowsWithRangeLength) {
  const auto keys = SortedKeys(5000, 11);
  RosettaRangeFilter f(keys, 22, 22.0);
  std::set<uint64_t> key_set(keys.begin(), keys.end());
  SplitMix64 rng(12);
  std::vector<double> fprs;
  for (uint64_t len_log : {2, 10, 26}) {
    uint64_t fp = 0;
    uint64_t total = 0;
    for (int i = 0; i < 4000; ++i) {
      const uint64_t lo = rng.Next();
      const uint64_t hi = lo + (uint64_t{1} << len_log) - 1;
      if (hi < lo) continue;
      const auto it = key_set.lower_bound(lo);
      if (it != key_set.end() && *it <= hi) continue;
      ++total;
      fp += f.MayContainRange(lo, hi);
    }
    fprs.push_back(total ? static_cast<double>(fp) / total : 0);
  }
  EXPECT_LE(fprs[0], fprs[2]);
  // Beyond the maintained levels Rosetta provides no filtering.
  EXPECT_GT(fprs[2], 0.9);
}

TEST(Snarf, UniformKeysGiveTargetFpr) {
  const auto keys = SortedKeys(30000, 13);
  SnarfRangeFilter f(keys, 6);  // ~2^-6 per-point slack.
  std::set<uint64_t> key_set(keys.begin(), keys.end());
  SplitMix64 rng(14);
  uint64_t fp = 0;
  uint64_t total = 0;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t lo = rng.Next();
    const uint64_t hi = lo;  // Point queries.
    const auto it = key_set.lower_bound(lo);
    if (it != key_set.end() && *it <= hi) continue;
    ++total;
    fp += f.MayContainRange(lo, hi);
  }
  EXPECT_LT(static_cast<double>(fp) / total, 0.05);
}

TEST(PrefixBloom, GivesUpOnWideRanges) {
  const auto keys = SortedKeys(1000, 15);
  PrefixBloomRangeFilter f(keys, 48, 12.0, /*max_probes=*/16);
  // A range spanning far more than 16 prefixes cannot be filtered.
  EXPECT_TRUE(f.MayContainRange(0, ~uint64_t{0}));
}

TEST(EmptyFilters, HandleZeroKeys) {
  const std::vector<uint64_t> none;
  EXPECT_FALSE(SnarfRangeFilter(none, 6).MayContainRange(0, 100));
  EXPECT_FALSE(
      SurfFilter(none, SurfFilter::SuffixMode::kBase, 0).MayContain(7));
  EXPECT_FALSE(GrafiteRangeFilter(none, 20).MayContainRange(0, 100));
  EXPECT_FALSE(MementoFilter(6, 8).MayContainRange(0, 100));
}

// --- Memento: the dynamic range filter (DESIGN.md §16) --------------------

TEST(Memento, OnlineInsertsWithExpansionPreserveEveryKey) {
  const uint64_t seed = TestSeed(0x3117);
  BBF_ANNOUNCE_SEED(seed);
  // Start tiny (64 quotients) so 20k inserts force many doublings.
  MementoFilter f(/*q_bits=*/6, /*r_bits=*/12);
  const auto keys = GenerateDistinctKeys(20000, seed);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(f.AddKey(keys[i])) << "insert " << i;
    if ((i & 2047) == 0) {
      ASSERT_TRUE(f.CheckInvariants()) << "insert " << i;
    }
  }
  EXPECT_GE(f.expansions(), 8u);
  EXPECT_EQ(f.NumKeys(), keys.size());
  ASSERT_TRUE(f.CheckInvariants());
  // Expansion re-splits fingerprints; no key may be lost across it.
  for (uint64_t k : keys) {
    ASSERT_TRUE(f.MayContain(k)) << "lost " << k;
    ASSERT_TRUE(f.MayContainRange(k, k)) << "lost (range) " << k;
  }
}

TEST(Memento, CorrelatedRangeQueriesStayNearConfiguredFpr) {
  const uint64_t seed = TestSeed(0xC0DE);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(20000, seed);
  MementoFilter f = MementoFilter::ForCapacity(keys.size(), 0.01);
  for (uint64_t k : keys) ASSERT_TRUE(f.AddKey(k));
  std::set<uint64_t> key_set(keys.begin(), keys.end());
  // Queries starting right after stored keys — the workload that breaks
  // trie-based filters. Memento answers same-prefix windows exactly from
  // the sorted memento lists, so correlation must not push the FPR past
  // 1.5x the configured 1%.
  const auto queries = GenerateRangeQueries(keys, 20000, /*range_len=*/64,
                                            /*correlated=*/true, ~uint64_t{0},
                                            seed + 1);
  uint64_t fp = 0;
  uint64_t total = 0;
  for (const auto& [lo, hi] : queries) {
    const auto it = key_set.lower_bound(lo);
    if (it != key_set.end() && *it <= hi) continue;
    ++total;
    fp += f.MayContainRange(lo, hi);
  }
  ASSERT_GT(total, 10000u);
  EXPECT_LT(static_cast<double>(fp) / total, 0.015);
}

TEST(Memento, DuplicateKeysKeepMultiplicity) {
  MementoFilter f(/*q_bits=*/6, /*r_bits=*/8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(f.AddKey(42));
  EXPECT_EQ(f.NumKeys(), 5u);
  EXPECT_TRUE(f.MayContain(42));
  ASSERT_TRUE(f.CheckInvariants());
}

TEST(Memento, EmptyFilterRejectsNarrowRangesAndGivesUpOnWide) {
  MementoFilter f(/*q_bits=*/6, /*r_bits=*/8);
  EXPECT_FALSE(f.MayContain(123));
  EXPECT_FALSE(f.MayContainRange(1000, 2000));  // ~5 prefixes at m=8.
  // A range spanning more than kMaxInteriorProbes prefixes is admitted
  // unseen — the same give-up contract as the prefix-Bloom family.
  EXPECT_TRUE(f.MayContainRange(0, ~uint64_t{0}));
}

TEST(Memento, FilterAndRangeSurfacesAgree) {
  const uint64_t seed = TestSeed(0xFACE);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(5000, seed);
  MementoFilter f = MementoFilter::ForCapacity(keys.size(), 0.01);
  for (uint64_t k : keys) ASSERT_TRUE(f.AddKey(k));
  // The point-filter surface (Filter::Contains over a HashedKey) and the
  // range surface must give identical answers for the same raw key.
  SplitMix64 rng(seed + 1);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k =
        (i & 1) ? keys[rng.NextBelow(keys.size())] : rng.Next();
    ASSERT_EQ(f.Contains(HashedKey(k)), f.MayContainRange(k, k)) << k;
  }
}

}  // namespace
}  // namespace bbf
