// Tests for the quotient-filter family: the 3-metadata-bit quotient filter,
// the counting variant with in-run variable-length counters, the maplet
// variant, and bit-sacrifice expansion. The randomized model tests compare
// every operation against a std::unordered_multiset reference.

#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "quotient/expanding_quotient_filter.h"
#include "core/key.h"
#include "quotient/quotient_filter.h"
#include "quotient/quotient_maplet.h"
#include "quotient/quotient_table.h"
#include "test_seed.h"
#include "util/hash.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

TEST(QuotientFilter, BasicInsertContains) {
  QuotientFilter f(10, 8);
  EXPECT_FALSE(f.Contains(1));
  EXPECT_TRUE(f.Insert(1));
  EXPECT_TRUE(f.Contains(1));
  EXPECT_EQ(f.NumKeys(), 1u);
  EXPECT_TRUE(f.Erase(1));
  EXPECT_FALSE(f.Contains(1));
  EXPECT_EQ(f.NumKeys(), 0u);
}

TEST(QuotientFilter, NoFalseNegativesNearFullLoad) {
  QuotientFilter f(14, 9);
  const uint64_t n = static_cast<uint64_t>(
      (1u << 14) * QuotientFilter::kMaxLoadFactor) - 16;
  const auto keys = GenerateDistinctKeys(n);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
}

TEST(QuotientFilter, RejectsBeyondMaxLoad) {
  QuotientFilter f(6, 8);
  uint64_t inserted = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    if (f.Insert(Hash64(k, 999))) ++inserted;
  }
  EXPECT_LE(inserted, 61u);  // 64 * 0.94 + 1
  EXPECT_GE(inserted, 58u);
}

TEST(QuotientFilter, FprNearTwoToMinusR) {
  QuotientFilter f(15, 10);
  const uint64_t n = 28000;  // ~85% load.
  const auto keys = GenerateDistinctKeys(n);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  const auto negatives = GenerateNegativeKeys(keys, 200000);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  const double fpr = static_cast<double>(fp) / negatives.size();
  // Expect ~ load * 2^-10 ~ 8.3e-4; allow generous slack.
  EXPECT_LT(fpr, 0.004);
  EXPECT_GT(fpr, 0.0);
}

TEST(QuotientFilter, SpaceIsLgInverseFprPlusAdditiveOverhead) {
  // §2: lg(1/eps) bits per key plus an additive term (3 metadata bits per
  // slot, at 94% load), so the overhead barely moves from eps = 2^-8 to
  // 2^-16, where Bloom's 1.44 factor adds 3.5 bits.
  constexpr uint64_t kKeys = 15400;  // 94% of 2^14 slots.
  double overhead[2];
  for (const int i : {0, 1}) {
    const int lg = 8 << i;
    QuotientFilter f = QuotientFilter::ForCapacity(kKeys, std::ldexp(1.0, -lg));
    for (uint64_t k : GenerateDistinctKeys(kKeys)) ASSERT_TRUE(f.Insert(k));
    overhead[i] = f.BitsPerKey() - lg;
  }
  EXPECT_GE(overhead[0], 3.0);
  EXPECT_LE(overhead[1], 4.5);
  EXPECT_LT(overhead[1] - overhead[0], 1.0);
}

TEST(QuotientFilter, FprRisesLinearlyWithLoad) {
  // §2.1: the FPR is about load * 2^-r, linear in the load.
  constexpr int kQ = 16;
  constexpr int kR = 8;
  QuotientFilter f(kQ, kR);
  const auto keys = GenerateDistinctKeys(59000, 91);
  const auto negatives = GenerateNegativeKeys(keys, 200000, 92);
  size_t next = 0;
  for (const double load : {0.2, 0.4, 0.6, 0.8, 0.9}) {
    while (f.LoadFactor() < load) ASSERT_TRUE(f.Insert(keys[next++]));
    uint64_t fp = 0;
    for (uint64_t k : negatives) fp += f.Contains(k);
    const double mean =
        negatives.size() * f.LoadFactor() * std::ldexp(1.0, -kR);
    EXPECT_NEAR(static_cast<double>(fp), mean, 4 * std::sqrt(mean))
        << "load " << load;
  }
}

TEST(QuotientFilter, MultisetDuplicates) {
  QuotientFilter f(10, 8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(f.Insert(77));
  EXPECT_EQ(f.Count(77), 5u);
  EXPECT_TRUE(f.Erase(77));
  EXPECT_EQ(f.Count(77), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(f.Erase(77));
  EXPECT_FALSE(f.Contains(77));
  EXPECT_FALSE(f.Erase(77));
}

// Randomized differential test against a reference multiset of *hashes*:
// we insert raw fingerprints' source keys and check Contains/Erase/Count
// agree with the reference wherever the filter must be exact (no false
// negatives; counts are upper bounds; erase succeeds iff present... with
// fingerprint-collision slack handled by using distinct keys).
class QuotientFilterModelTest : public ::testing::TestWithParam<int> {};

TEST_P(QuotientFilterModelTest, RandomOpsMatchReference) {
  const int q = 10;
  const int r = GetParam();
  QuotientFilter f(q, r);
  std::unordered_multiset<uint64_t> ref;
  SplitMix64 rng(1234 + r);
  const uint64_t key_space = 3000;  // Dense key reuse to exercise runs.
  for (int op = 0; op < 60000; ++op) {
    const uint64_t key = rng.NextBelow(key_space);
    const double dice = rng.NextDouble();
    if (dice < 0.55) {
      if (f.LoadFactor() < QuotientFilter::kMaxLoadFactor) {
        ASSERT_TRUE(f.Insert(key));
        ref.insert(key);
      }
    } else if (dice < 0.9) {
      // Only erase keys known to be present: erasing an absent key can
      // legitimately delete a colliding twin's fingerprint (the standard
      // fingerprint-filter deletion caveat), which would desynchronize
      // the reference. A dedicated test below covers that caveat.
      if (ref.contains(key)) {
        ASSERT_TRUE(f.Erase(key)) << "op " << op;
        ref.erase(ref.find(key));
      }
    } else {
      if (ref.contains(key)) {
        ASSERT_TRUE(f.Contains(key)) << "false negative, op " << op;
        ASSERT_GE(f.Count(key), ref.count(key)) << "op " << op;
      }
    }
  }
  // Final sweep: every referenced key must be present with count >= truth.
  std::unordered_map<uint64_t, uint64_t> counts;
  for (uint64_t k : ref) ++counts[k];
  for (const auto& [k, c] : counts) {
    ASSERT_TRUE(f.Contains(k));
    ASSERT_GE(f.Count(k), c);
  }
  EXPECT_EQ(f.NumKeys(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(RemainderWidths, QuotientFilterModelTest,
                         ::testing::Values(8, 10, 13, 16));

TEST(QuotientFilter, TableInvariantsHoldUnderChurn) {
  QuotientFilter f(8, 6);
  std::unordered_multiset<uint64_t> ref;
  SplitMix64 rng(9);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextBelow(400);
    if (rng.NextDouble() < 0.55) {
      if (f.Insert(key)) ref.insert(key);
    } else if (ref.contains(key)) {
      ASSERT_TRUE(f.Erase(key));
      ref.erase(ref.find(key));
    }
    if (op % 500 == 0) {
      ASSERT_TRUE(f.table().CheckInvariants()) << op;
    }
  }
  ASSERT_TRUE(f.table().CheckInvariants());
}

TEST(QuotientFilter, ErasingAbsentKeyMayRemoveCollidingTwin) {
  // The documented deletion caveat of every fingerprint filter: deleting a
  // key that was never inserted can remove a colliding twin's fingerprint.
  // Find two keys with identical fingerprints and demonstrate it.
  QuotientFilter f(6, 4);  // 10-bit fingerprints: collisions are easy.
  uint64_t fq0;
  uint64_t fr0;
  f.Fingerprint(HashedKey(1000), &fq0, &fr0);
  uint64_t twin = 0;
  for (uint64_t k = 0;; ++k) {
    uint64_t fq;
    uint64_t fr;
    f.Fingerprint(HashedKey(k), &fq, &fr);
    if (fq == fq0 && fr == fr0 && k != 1000) {
      twin = k;
      break;
    }
  }
  ASSERT_TRUE(f.Insert(1000));
  EXPECT_TRUE(f.Contains(twin));    // Indistinguishable from 1000.
  EXPECT_TRUE(f.Erase(twin));       // "Deletes" the absent twin...
  EXPECT_FALSE(f.Contains(1000));   // ...creating a false negative for 1000.
}

TEST(QuotientFilter, NeverCompletelyFills) {
  // Even tiny tables must keep one slot free (scans depend on it).
  QuotientFilter f(4, 4);
  uint64_t inserted = 0;
  for (uint64_t k = 0; k < 100; ++k) inserted += f.Insert(k);
  EXPECT_LT(f.table().num_used_slots(), f.table().num_slots());
  EXPECT_TRUE(f.table().CheckInvariants());
}

TEST(QuotientFilter, DoubleTableKeepsEveryFingerprint) {
  // Doubling moves each remainder's top bit into the quotient, so the
  // (q + r)-bit fingerprints — and with them every Count — are unchanged.
  QuotientFilter f(8, 12);
  const auto keys = GenerateDistinctKeys(200);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  std::vector<uint64_t> probes = keys;
  const auto negatives = GenerateNegativeKeys(keys, 20000);
  probes.insert(probes.end(), negatives.begin(), negatives.end());
  std::vector<uint64_t> counts;
  for (uint64_t k : probes) counts.push_back(f.Count(k));
  ASSERT_TRUE(f.DoubleTable());
  EXPECT_EQ(f.q_bits(), 9);
  EXPECT_EQ(f.r_bits(), 11);
  EXPECT_EQ(f.NumKeys(), keys.size());
  EXPECT_TRUE(f.table().CheckInvariants());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(f.Count(probes[i]), counts[i]) << i;
  }
  QuotientFilter exhausted(6, 1);
  EXPECT_FALSE(exhausted.DoubleTable());
}

TEST(QuotientFilter, ForCapacitySizing) {
  QuotientFilter f = QuotientFilter::ForCapacity(10000, 0.01);
  const auto keys = GenerateDistinctKeys(10000);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  const auto negatives = GenerateNegativeKeys(keys, 100000);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  EXPECT_LT(static_cast<double>(fp) / negatives.size(), 0.02);
}

// --- Run lookup against an independent oracle -------------------------------

// ForEachSlot assigns every stored slot its quotient with a queue walk of
// its own and never calls FindRunStart, so ScanRun(q) must visit exactly
// the slots it assigns to q, in order. Returns how many occupied
// quotients sit behind QuotientTable::kWalkSlots shifted slots, which
// FindRunStart resolves with word operations instead of the walk.
uint64_t ExpectRunsMatchOracle(const QuotientTable& t) {
  const uint64_t n = t.num_slots();
  std::vector<std::vector<uint64_t>> runs(n);
  t.ForEachSlot([&](uint64_t q, uint64_t s) { runs[q].push_back(s); });
  // Slot s is shifted when it holds a slot of another quotient's run, or
  // any but the first slot of its own.
  std::vector<bool> shifted(n, false);
  for (uint64_t q = 0; q < n; ++q) {
    for (size_t i = 0; i < runs[q].size(); ++i) {
      shifted[runs[q][i]] = i > 0 || runs[q][i] != q;
    }
  }
  uint64_t word_path = 0;
  for (uint64_t q = 0; q < n; ++q) {
    std::vector<uint64_t> scanned;
    const uint64_t visited = t.ScanRun(q, [&](uint64_t s) {
      scanned.push_back(s);
      return true;
    });
    EXPECT_EQ(visited, scanned.size());
    EXPECT_EQ(scanned, runs[q]) << "q=" << q << " of " << n << " slots";
    if (runs[q].empty()) continue;
    uint64_t back = 0;
    while (back < n && shifted[(q - back) & (n - 1)]) ++back;
    word_path += back >= QuotientTable::kWalkSlots;
  }
  return word_path;
}

// Inserts `rem` at quotient `q`, keeping the run sorted as the filter does.
bool InsertSorted(QuotientTable* t, uint64_t q, uint64_t rem) {
  return t->InsertIntoRun(
      q, rem, [&](uint64_t s) { return t->remainder(s) >= rem; });
}

TEST(QuotientTable, ScanRunMatchesOracleAtEveryLoad) {
  const uint64_t seed = TestSeed(281);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  for (int q_bits = 6; q_bits <= 12; ++q_bits) {
    const uint64_t n = uint64_t{1} << q_bits;
    for (double load : {0.25, 0.5, 0.8, 0.9, 0.94}) {
      QuotientTable t(q_bits, 8);
      const uint64_t target = static_cast<uint64_t>(load * n);
      while (t.num_used_slots() < target) {
        ASSERT_TRUE(InsertSorted(&t, rng.NextBelow(n), rng.NextBelow(256)));
      }
      ASSERT_TRUE(t.CheckInvariants());
      SCOPED_TRACE(::testing::Message()
                   << "q_bits " << q_bits << " load " << load);
      const uint64_t word_path = ExpectRunsMatchOracle(t);
      if (load >= 0.9) {
        EXPECT_GT(word_path, 0u);
      }
    }
  }
}

TEST(QuotientTable, ScanRunMatchesOracleOnClustersWrappingPastLastSlot) {
  // Runs homed in the last slots overflow into slot 0 and on, so the
  // quotients homed there find their cluster start by wrapping the
  // downward word scan, and the run heads by wrapping the forward one.
  // 64 slots is one word: the scans wrap inside it.
  const uint64_t seed = TestSeed(282);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  for (int q_bits : {6, 7, 8, 10}) {
    const uint64_t n = uint64_t{1} << q_bits;
    QuotientTable t(q_bits, 8);
    for (uint64_t i = 0; i < 24; ++i) {
      ASSERT_TRUE(InsertSorted(&t, n - 1 - rng.NextBelow(4),
                               rng.NextBelow(256)));
    }
    for (uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(InsertSorted(&t, rng.NextBelow(12), rng.NextBelow(256)));
    }
    ASSERT_TRUE(t.CheckInvariants());
    SCOPED_TRACE(::testing::Message() << "q_bits " << q_bits);
    EXPECT_GT(ExpectRunsMatchOracle(t), 0u);
    uint64_t wrapped = 0;
    t.ForEachSlot([&](uint64_t q, uint64_t s) { wrapped += s < q; });
    EXPECT_GT(wrapped, 0u);
  }
}

TEST(QuotientFilter, WordPathAnswersMatchFingerprintModel) {
  // Count, Contains and Erase are exact in the fingerprint domain: a
  // model of (quotient, remainder) multiplicities predicts every answer,
  // at loads where most probes take the word path.
  const uint64_t seed = TestSeed(283);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  for (int q_bits : {6, 9, 12}) {
    QuotientFilter f(q_bits, 6);
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> model;
    const auto fp = [&](uint64_t key) {
      std::pair<uint64_t, uint64_t> p;
      f.Fingerprint(HashedKey(key), &p.first, &p.second);
      return p;
    };
    const uint64_t key_space = uint64_t{2} << q_bits;
    const auto check_all = [&] {
      for (uint64_t k = 0; k < key_space; ++k) {
        const auto it = model.find(fp(k));
        const uint64_t want = it == model.end() ? 0 : it->second;
        ASSERT_EQ(f.Count(k), want) << "key " << k;
        ASSERT_EQ(f.Contains(k), want > 0) << "key " << k;
      }
    };
    // Churn near the maximum load with repeated keys, then fill up.
    for (int op = 0; op < 40 << q_bits; ++op) {
      const uint64_t key = rng.NextBelow(key_space);
      if (rng.NextDouble() < 0.6) {
        if (f.Insert(key)) ++model[fp(key)];
      } else {
        const auto it = model.find(fp(key));
        ASSERT_EQ(f.Erase(key), it != model.end()) << "op " << op;
        if (it != model.end() && --it->second == 0) model.erase(it);
      }
    }
    for (uint64_t key = rng.NextBelow(key_space); f.Insert(key);
         key = rng.NextBelow(key_space)) {
      ++model[fp(key)];
    }
    EXPECT_GE(f.LoadFactor(), 0.9);
    ASSERT_TRUE(f.table().CheckInvariants());
    check_all();
    uint64_t stored = 0;
    for (const auto& [key, count] : model) stored += count;
    EXPECT_EQ(f.NumKeys(), stored);
  }
}

// --- Counting quotient filter ---------------------------------------------

TEST(CountingQuotientFilter, CountsExactlyWithoutCollisions) {
  CountingQuotientFilter f(12, 16);
  for (int i = 0; i < 1000; ++i) f.Insert(5);
  EXPECT_EQ(f.Count(5), 1000u);
  EXPECT_EQ(f.NumKeys(), 1000u);
  // 1000 copies should take ~1 remainder slot + 2 digit slots (base 2^16),
  // not 1000 slots.
  EXPECT_LE(f.num_used_slots(), 4u);
}

TEST(CountingQuotientFilter, SkewedStreamCountsMatch) {
  CountingQuotientFilter f(13, 12);
  const auto stream = GenerateZipfStream(3000, 1.1, 40000);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (uint64_t k : stream) {
    ASSERT_TRUE(f.Insert(k));
    ++truth[k];
  }
  uint64_t exact = 0;
  for (const auto& [k, c] : truth) {
    ASSERT_GE(f.Count(k), c) << "counting filter may only overcount";
    exact += (f.Count(k) == c);
  }
  EXPECT_GT(static_cast<double>(exact) / truth.size(), 0.95);
}

TEST(CountingQuotientFilter, VariableLengthCountersSaveSlots) {
  // 100k inserts of 100 distinct keys must use far fewer than 100k slots.
  CountingQuotientFilter f(12, 8);
  SplitMix64 rng(5);
  std::vector<uint64_t> keys = GenerateDistinctKeys(100);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(f.Insert(keys[rng.NextBelow(100)]));
  }
  EXPECT_LT(f.num_used_slots(), 500u);
}

TEST(CountingQuotientFilter, EraseDecrements) {
  CountingQuotientFilter f(10, 10);
  for (int i = 0; i < 300; ++i) f.Insert(9);
  for (int i = 0; i < 299; ++i) {
    ASSERT_TRUE(f.Erase(9));
    ASSERT_EQ(f.Count(9), static_cast<uint64_t>(299 - i));
  }
  EXPECT_TRUE(f.Erase(9));
  EXPECT_EQ(f.Count(9), 0u);
  EXPECT_FALSE(f.Contains(9));
  EXPECT_FALSE(f.Erase(9));
  EXPECT_EQ(f.num_used_slots(), 0u);
}

TEST(CountingQuotientFilter, RandomizedModel) {
  CountingQuotientFilter f(11, 14);
  std::unordered_map<uint64_t, uint64_t> ref;
  SplitMix64 rng(77);
  const uint64_t key_space = 500;
  for (int op = 0; op < 40000; ++op) {
    const uint64_t key = rng.NextBelow(key_space);
    if (rng.NextDouble() < 0.6) {
      if (f.LoadFactor() < QuotientFilter::kMaxLoadFactor) {
        ASSERT_TRUE(f.Insert(key));
        ++ref[key];
      }
    } else {
      auto it = ref.find(key);
      if (it != ref.end()) {
        ASSERT_TRUE(f.Erase(key)) << "op " << op;
        if (--it->second == 0) ref.erase(it);
      }
    }
  }
  for (const auto& [k, c] : ref) {
    ASSERT_GE(f.Count(k), c);
  }
}

// --- Maplet ----------------------------------------------------------------

TEST(QuotientMaplet, LookupReturnsStoredValue) {
  QuotientMaplet m(10, 12, 8);
  ASSERT_TRUE(m.Insert(100, 42));
  const auto vals = m.Lookup(100);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 42u);
  EXPECT_TRUE(m.Lookup(101).empty());
}

TEST(QuotientMaplet, MultipleValuesPerKey) {
  QuotientMaplet m(10, 12, 8);
  ASSERT_TRUE(m.Insert(5, 1));
  ASSERT_TRUE(m.Insert(5, 2));
  ASSERT_TRUE(m.Insert(5, 3));
  auto vals = m.Lookup(5);
  EXPECT_EQ(vals.size(), 3u);
}

TEST(QuotientMaplet, PositiveLookupsAlwaysIncludeTruth) {
  QuotientMaplet m = QuotientMaplet::ForCapacity(8000, 0.01, 10);
  const auto keys = GenerateDistinctKeys(8000);
  SplitMix64 rng(3);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (uint64_t k : keys) {
    const uint64_t v = rng.NextBelow(1024);
    ASSERT_TRUE(m.Insert(k, v));
    truth[k] = v;
  }
  double prs_total = 0;
  for (const auto& [k, v] : truth) {
    const auto vals = m.Lookup(k);
    ASSERT_FALSE(vals.empty());
    EXPECT_NE(std::find(vals.begin(), vals.end(), v), vals.end())
        << "true value missing from lookup result";
    prs_total += vals.size();
  }
  // PRS = 1 + eps (paper §2.4): tiny overhead above exactly 1.
  EXPECT_LT(prs_total / truth.size(), 1.05);
}

TEST(QuotientMaplet, EraseRemovesAssociation) {
  QuotientMaplet m(10, 12, 8);
  m.Insert(5, 1);
  m.Insert(5, 2);
  ASSERT_TRUE(m.Erase(5, 1));
  auto vals = m.Lookup(5);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 2u);
  EXPECT_FALSE(m.Erase(5, 9));
}

// --- Expanding (bit sacrifice) ----------------------------------------------

TEST(ExpandingQuotientFilter, MembershipSurvivesExpansions) {
  ExpandingQuotientFilter f(8, 12);
  const auto keys = GenerateDistinctKeys(10000);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  EXPECT_GE(f.expansions(), 5);
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k)) << k;
}

TEST(ExpandingQuotientFilter, FprDegradesWithExpansions) {
  // Start with few remainder bits so expansions visibly eat the FPR.
  ExpandingQuotientFilter f(10, 9);
  const auto keys = GenerateDistinctKeys(30000);
  const auto negatives = GenerateNegativeKeys(keys, 30000);
  double prev_fpr = -1;
  size_t idx = 0;
  std::vector<double> fprs;
  for (int stage = 0; stage < 3; ++stage) {
    const size_t target = 900ull << (stage * 2);  // 900, 3600, 14400 keys.
    while (idx < target) ASSERT_TRUE(f.Insert(keys[idx++]));
    uint64_t fp = 0;
    for (uint64_t k : negatives) fp += f.Contains(k);
    fprs.push_back(static_cast<double>(fp) / negatives.size());
  }
  // Four doublings cost four remainder bits: FPR must grow markedly.
  EXPECT_GT(fprs.back(), fprs.front() * 4);
  (void)prev_fpr;
}

TEST(ExpandingQuotientFilter, StopsWhenRemainderExhausted) {
  ExpandingQuotientFilter f(4, 2);
  uint64_t inserted = 0;
  for (uint64_t k = 0; k < 4000; ++k) {
    if (f.Insert(Hash64(k, 31))) ++inserted;
  }
  EXPECT_LT(inserted, 4000u);  // Eventually r == 1 and expansion fails.
  EXPECT_EQ(f.r_bits(), 1);
}

TEST(ExpandingQuotientFilter, EraseStillWorksAfterExpansion) {
  ExpandingQuotientFilter f(6, 10);
  const auto keys = GenerateDistinctKeys(500);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  ASSERT_GT(f.expansions(), 0);
  for (uint64_t k : keys) ASSERT_TRUE(f.Erase(k));
  EXPECT_EQ(f.NumKeys(), 0u);
}

}  // namespace
}  // namespace bbf
