// Tests for the cuckoo-filter family: base filter, maplet, adaptive.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cuckoo/adaptive_cuckoo_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "cuckoo/cuckoo_maplet.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf {
namespace {

TEST(CuckooFilter, BasicRoundTrip) {
  CuckooFilter f(1000, 12);
  EXPECT_FALSE(f.Contains(5));
  EXPECT_TRUE(f.Insert(5));
  EXPECT_TRUE(f.Contains(5));
  EXPECT_TRUE(f.Erase(5));
  EXPECT_FALSE(f.Contains(5));
  EXPECT_FALSE(f.Erase(5));
}

TEST(CuckooFilter, NoFalseNegativesAtHighLoad) {
  CuckooFilter f(50000, 12);
  const auto keys = GenerateDistinctKeys(50000);
  uint64_t inserted = 0;
  for (uint64_t k : keys) inserted += f.Insert(k);
  EXPECT_EQ(inserted, keys.size());  // 95% sizing leaves room for all.
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
}

TEST(CuckooFilter, FprNearTheory) {
  CuckooFilter f(50000, 12);
  const auto keys = GenerateDistinctKeys(50000);
  for (uint64_t k : keys) f.Insert(k);
  const auto negatives = GenerateNegativeKeys(keys, 200000);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  const double fpr = static_cast<double>(fp) / negatives.size();
  // ~ 8/2^12 = 0.002 at full-ish load.
  EXPECT_LT(fpr, 0.006);
}

TEST(CuckooFilter, ForFprSizing) {
  CuckooFilter f = CuckooFilter::ForFpr(10000, 0.01);
  const auto keys = GenerateDistinctKeys(10000);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  const auto negatives = GenerateNegativeKeys(keys, 100000);
  uint64_t fp = 0;
  for (uint64_t k : negatives) fp += f.Contains(k);
  EXPECT_LT(static_cast<double>(fp) / negatives.size(), 0.02);
}

TEST(CuckooFilter, SpaceIsLgInverseFprPlusAdditiveOverhead) {
  // §2: lg(1/eps) + 3 bits per key (4-slot buckets cost lg 8 fingerprint
  // bits, at 94% load), so the overhead barely moves from eps = 2^-8 to
  // 2^-16, where Bloom's 1.44 factor adds 3.5 bits.
  constexpr uint64_t kKeys = 15400;
  double overhead[2];
  for (const int i : {0, 1}) {
    const int lg = 8 << i;
    CuckooFilter f = CuckooFilter::ForFpr(kKeys, std::ldexp(1.0, -lg));
    for (uint64_t k : GenerateDistinctKeys(kKeys)) ASSERT_TRUE(f.Insert(k));
    overhead[i] = f.BitsPerKey() - lg;
  }
  EXPECT_GE(overhead[0], 3.0);
  EXPECT_LE(overhead[1], 4.5);
  EXPECT_LT(overhead[1] - overhead[0], 1.0);
}

TEST(CuckooFilter, DuplicatesCountedUpToBucketCapacity) {
  CuckooFilter f(1000, 12);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(f.Insert(42));
  EXPECT_GE(f.Count(42), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(f.Erase(42));
  EXPECT_FALSE(f.Contains(42));
}

TEST(CuckooFilter, ChurnModelAgainstReference) {
  CuckooFilter f(4000, 14);
  std::unordered_map<uint64_t, uint64_t> ref;
  SplitMix64 rng(21);
  for (int op = 0; op < 50000; ++op) {
    const uint64_t key = rng.NextBelow(3000);
    if (rng.NextDouble() < 0.55) {
      if (f.LoadFactor() < 0.9 && f.Insert(key)) ++ref[key];
    } else {
      auto it = ref.find(key);
      if (it != ref.end()) {
        ASSERT_TRUE(f.Erase(key)) << op;
        if (--it->second == 0) ref.erase(it);
      }
    }
  }
  for (const auto& [k, c] : ref) {
    ASSERT_TRUE(f.Contains(k));
    ASSERT_GE(f.Count(k), c);
  }
}

TEST(CuckooMaplet, StoreAndRetrieve) {
  CuckooMaplet m(10000, 14, 8);
  const auto keys = GenerateDistinctKeys(8000);
  SplitMix64 rng(2);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (uint64_t k : keys) {
    const uint64_t v = rng.NextBelow(256);
    ASSERT_TRUE(m.Insert(k, v));
    truth[k] = v;
  }
  double prs = 0;
  for (const auto& [k, v] : truth) {
    const auto vals = m.Lookup(k);
    ASSERT_FALSE(vals.empty());
    EXPECT_NE(std::find(vals.begin(), vals.end(), v), vals.end());
    prs += vals.size();
  }
  EXPECT_LT(prs / truth.size(), 1.05);  // PRS = 1 + eps.
}

TEST(CuckooMaplet, EraseByValue) {
  CuckooMaplet m(100, 12, 8);
  m.Insert(1, 10);
  m.Insert(1, 20);
  EXPECT_EQ(m.Lookup(1).size(), 2u);
  EXPECT_TRUE(m.Erase(1, 10));
  const auto vals = m.Lookup(1);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], 20u);
}

TEST(AdaptiveCuckoo, BasicMembership) {
  AdaptiveCuckooFilter f(5000, 10);
  const auto keys = GenerateDistinctKeys(4000);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
}

TEST(AdaptiveCuckoo, AdaptsAwayFalsePositives) {
  AdaptiveCuckooFilter f(5000, 10);
  const auto keys = GenerateDistinctKeys(4000);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  const auto negatives = GenerateNegativeKeys(keys, 50000);
  uint64_t fixed = 0;
  uint64_t fps = 0;
  for (uint64_t k : negatives) {
    if (f.Contains(k)) {
      ++fps;
      if (f.ReportFalsePositive(k)) ++fixed;
    }
  }
  ASSERT_GT(fps, 0u);  // 10-bit fingerprints: some FPs must occur.
  // Nearly all reported FPs are fixed by one selector bump.
  EXPECT_GT(static_cast<double>(fixed) / fps, 0.95);
  // Members must remain present after adaptation (no false negatives).
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
}

TEST(AdaptiveCuckoo, RepeatedQueryStopsBeingFalsePositive) {
  AdaptiveCuckooFilter f(2000, 8);
  const auto keys = GenerateDistinctKeys(1500);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  const auto negatives = GenerateNegativeKeys(keys, 20000);
  // Find an FP, report it, and requery many times: a plain filter would
  // pay the FP on every repeat; the adaptive one must not.
  for (uint64_t k : negatives) {
    if (f.Contains(k)) {
      f.ReportFalsePositive(k);
      int repeats_fp = 0;
      for (int i = 0; i < 100; ++i) repeats_fp += f.Contains(k);
      EXPECT_EQ(repeats_fp, 0) << "key " << k;
      break;
    }
  }
}

TEST(AdaptiveCuckoo, EraseIsExactViaRemoteStore) {
  AdaptiveCuckooFilter f(1000, 8);
  f.Insert(5);
  f.Insert(6);
  EXPECT_TRUE(f.Erase(5));
  EXPECT_FALSE(f.Erase(5));
  EXPECT_TRUE(f.Contains(6));
  EXPECT_EQ(f.NumKeys(), 1u);
}

// --- Eviction-loop unwind regressions -------------------------------------
//
// Saturate a deliberately tiny table far past capacity so the stash fills
// and kick chains dead-end. A failed insert must leave the table exactly as
// it was: every previously-acknowledged key stays queryable and NumKeys
// matches the acknowledgement count. Before the unwind fix, a dead-ended
// chain (or a chain refused only because the stash was full) could drop the
// last evicted victim — a false negative for an acked key.

TEST(CuckooFilter, SaturatingInsertsNeverDropAckedKeys) {
  CuckooFilter f(64, 10);
  const auto keys = GenerateDistinctKeys(4000, /*seed=*/77);
  std::vector<uint64_t> acked;
  uint64_t rejected = 0;
  for (uint64_t k : keys) {
    if (f.Insert(k)) {
      acked.push_back(k);
    } else {
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0u) << "test must actually saturate the table";
  EXPECT_EQ(f.NumKeys(), acked.size());
  for (uint64_t k : acked) {
    ASSERT_TRUE(f.Contains(k)) << "acked key " << k << " went missing";
  }
}

TEST(CuckooFilter, WideFingerprintStashSurvivesReload) {
  // 60-bit fingerprints over 32 buckets: the one-word stash format
  // (bucket << f | fp) keeps only a bucket's low 4 bits, so a stashed
  // victim of bucket 16 or above must still match after a reload.
  CuckooFilter f(64, 60);
  const auto keys = GenerateDistinctKeys(4000, /*seed=*/80);
  std::vector<uint64_t> acked;
  for (uint64_t k : keys) {
    if (f.Insert(k)) acked.push_back(k);
  }
  ASSERT_EQ(f.stash_size(), CuckooFilter::kMaxStash);
  std::stringstream snapshot;
  ASSERT_TRUE(f.Save(snapshot));
  CuckooFilter reloaded(1, 8);
  ASSERT_TRUE(reloaded.Load(snapshot));
  EXPECT_EQ(reloaded.NumKeys(), acked.size());
  for (uint64_t k : acked) {
    ASSERT_TRUE(reloaded.Contains(k)) << "acked key " << k;
    ASSERT_EQ(reloaded.Count(k), f.Count(k)) << "acked key " << k;
  }
}

TEST(AdaptiveCuckoo, SaturatingInsertsNeverDropAckedKeys) {
  AdaptiveCuckooFilter f(64, 10);
  const auto keys = GenerateDistinctKeys(4000, /*seed=*/78);
  std::vector<uint64_t> acked;
  uint64_t rejected = 0;
  for (uint64_t k : keys) {
    if (f.Insert(k)) {
      acked.push_back(k);
    } else {
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0u) << "test must actually saturate the table";
  EXPECT_EQ(f.NumKeys(), acked.size());
  for (uint64_t k : acked) {
    ASSERT_TRUE(f.Contains(k)) << "acked key " << k << " went missing";
  }
  // The remote store makes Contains exact for erase purposes, so every
  // acked key must also still be erasable — a stronger "nothing was
  // dropped" check than the fingerprint probe alone.
  for (uint64_t k : acked) {
    ASSERT_TRUE(f.Erase(k)) << "acked key " << k << " not erasable";
  }
  EXPECT_EQ(f.NumKeys(), 0u);
}

TEST(CuckooMaplet, SaturatingInsertsNeverDropAckedPairs) {
  CuckooMaplet m(64, 12, 8);
  const auto keys = GenerateDistinctKeys(4000, /*seed=*/79);
  std::vector<uint64_t> acked;
  uint64_t rejected = 0;
  for (uint64_t k : keys) {
    if (m.Insert(k, k & 0xFF)) {
      acked.push_back(k);
    } else {
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0u) << "test must actually saturate the table";
  EXPECT_EQ(m.NumEntries(), acked.size());
  for (uint64_t k : acked) {
    const auto values = m.Lookup(k);
    ASSERT_TRUE(std::find(values.begin(), values.end(), k & 0xFF) !=
                values.end())
        << "acked pair for key " << k << " went missing";
  }
}

}  // namespace
}  // namespace bbf
