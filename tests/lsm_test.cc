// Integration tests for the mini LSM-tree storage engine (§3.1 / E9):
// correctness against a reference std::map model, filter effectiveness,
// Monkey allocation, tiering vs leveling, and range-filter I/O savings.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "apps/lsm/lsm_tree.h"
#include "test_seed.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf::lsm {
namespace {

LsmOptions SmallOptions() {
  LsmOptions o;
  o.memtable_entries = 256;
  o.size_ratio = 4;
  return o;
}

TEST(LsmTree, PutGetRoundTrip) {
  LsmTree db(SmallOptions());
  db.Put(1, 100);
  db.Put(2, 200);
  EXPECT_EQ(db.Get(1), std::optional<uint64_t>(100));
  EXPECT_EQ(db.Get(2), std::optional<uint64_t>(200));
  EXPECT_EQ(db.Get(3), std::nullopt);
}

TEST(LsmTree, OverwriteAndDelete) {
  LsmTree db(SmallOptions());
  db.Put(1, 100);
  db.Put(1, 101);
  EXPECT_EQ(db.Get(1), std::optional<uint64_t>(101));
  db.Delete(1);
  EXPECT_EQ(db.Get(1), std::nullopt);
}

class LsmModelTest : public ::testing::TestWithParam<bool> {};

TEST_P(LsmModelTest, RandomOpsMatchReferenceModel) {
  LsmOptions o = SmallOptions();
  o.tiering = GetParam();
  LsmTree db(o);
  std::map<uint64_t, uint64_t> ref;
  const uint64_t seed = TestSeed(33);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  for (int op = 0; op < 30000; ++op) {
    const uint64_t key = rng.NextBelow(4000);
    const double dice = rng.NextDouble();
    if (dice < 0.6) {
      const uint64_t value = rng.Next();
      db.Put(key, value);
      ref[key] = value;
    } else if (dice < 0.8) {
      db.Delete(key);
      ref.erase(key);
    } else {
      const auto got = db.Get(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        ASSERT_EQ(got, std::nullopt) << "op " << op << " key " << key;
      } else {
        ASSERT_EQ(got, std::optional<uint64_t>(it->second))
            << "op " << op << " key " << key;
      }
    }
  }
  // Full sweep at the end, by point lookups and by one scan of the whole
  // key space, which reads every run's merge output.
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(db.Get(k), std::optional<uint64_t>(v));
  }
  const std::vector<std::pair<uint64_t, uint64_t>> expect(ref.begin(),
                                                          ref.end());
  EXPECT_EQ(db.Scan(0, UINT64_MAX), expect);
}

INSTANTIATE_TEST_SUITE_P(LevelingAndTiering, LsmModelTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tiering" : "Leveling";
                         });

// A key put into an old run and deleted in a newer one must stay absent
// while its tombstone is merged down the tree: a merge above the bottom
// level keeps the tombstone (an older copy may still lie below it), and
// the merge into the bottom level drops it together with the put.
TEST(LsmTree, TombstoneShadowsOlderRunUntilDroppedAtBottom) {
  for (const bool tiering : {false, true}) {
    SCOPED_TRACE(tiering ? "tiering" : "leveling");
    LsmOptions o;
    o.memtable_entries = 8;
    o.size_ratio = 2;
    o.tiering = tiering;
    LsmTree db(o);
    constexpr uint64_t kVictim = 3 * 40 + 1;  // Between two filler keys.
    uint64_t fillers = 0;
    const auto fill = [&](uint64_t n) {
      for (uint64_t i = 0; i < n; ++i, ++fillers) db.Put(3 * fillers, 1);
    };
    // Fourteen memtables first: the tree then has a level below the one
    // where the put and its tombstone first meet, so that merge is not
    // into the bottom level.
    fill(14 * o.memtable_entries);
    ASSERT_GE(db.NumLevels(), 3);
    db.Put(kVictim, 99);
    fill(o.memtable_entries);  // Flushes the put into a run of its own.
    ASSERT_EQ(db.TotalEntries(), fillers + 1);
    db.Delete(kVictim);
    // Every key is written once except the victim, so the copies of the
    // victim the tree holds (put, tombstone) are what exceeds the fillers.
    bool tombstone_alone = false;
    bool dropped = false;
    for (int step = 0; step < 4096 && !dropped; ++step) {
      fill(1);
      ASSERT_EQ(db.Get(kVictim), std::nullopt) << "step " << step;
      ASSERT_TRUE(db.Scan(kVictim, kVictim).empty()) << "step " << step;
      const uint64_t copies = db.TotalEntries() - fillers;
      ASSERT_LE(copies, 2u);
      if (copies == 1) tombstone_alone = true;
      if (copies == 0) dropped = true;
    }
    EXPECT_TRUE(tombstone_alone)
        << "the tombstone never outlived the put in a non-bottom merge";
    EXPECT_TRUE(dropped) << "the tombstone never reached the bottom level";
    const auto all = db.Scan(0, UINT64_MAX);
    ASSERT_EQ(all.size(), fillers);
    for (uint64_t i = 0; i < fillers; ++i) {
      ASSERT_EQ(all[i], std::make_pair(3 * i, uint64_t{1}));
    }
  }
}

TEST(LsmTree, ScanMatchesReference) {
  LsmOptions o = SmallOptions();
  o.range_filter = RangeFilterKind::kGrafite;
  LsmTree db(o);
  std::map<uint64_t, uint64_t> ref;
  const uint64_t seed = TestSeed(34);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBelow(1u << 20);
    db.Put(key, key * 2);
    ref[key] = key * 2;
  }
  for (int q = 0; q < 500; ++q) {
    const uint64_t lo = rng.NextBelow(1u << 20);
    const uint64_t hi = lo + rng.NextBelow(5000);
    const auto got = db.Scan(lo, hi);
    std::vector<std::pair<uint64_t, uint64_t>> expect;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
         ++it) {
      expect.emplace_back(it->first, it->second);
    }
    ASSERT_EQ(got, expect) << "range [" << lo << "," << hi << "]";
  }
}

TEST(LsmTree, ReversedScanRangeIsEmptyAndChargesNothing) {
  // lo > hi with both ends inside every run's key range: each run's own
  // key-range check passes, so the run must reject the empty interval.
  for (RangeFilterKind kind :
       {RangeFilterKind::kNone, RangeFilterKind::kGrafite}) {
    SCOPED_TRACE(static_cast<int>(kind));
    LsmOptions o;
    o.memtable_entries = 64;
    o.memtable_filter = MemtableFilterKind::kNone;
    o.range_filter = kind;
    LsmTree db(o);
    for (uint64_t k = 0; k < 1000; ++k) db.Put(k, k);
    db.ResetIo();
    EXPECT_TRUE(db.Scan(500, 100).empty());
    EXPECT_EQ(db.io().data_reads, 0u);
    EXPECT_EQ(db.io().filter_probes, 0u);
    EXPECT_EQ(db.io().runs_consulted, 0u);
    EXPECT_EQ(db.io().false_probes, 0u);
    EXPECT_EQ(db.io().quarantined_reads, 0u);
    EXPECT_EQ(db.Scan(100, 500).size(), 401u);
  }
}

TEST(LsmTree, FiltersCutNegativeLookupIos) {
  LsmOptions with;
  with.memtable_entries = 1024;
  with.point_filter = PointFilterKind::kBloom;
  with.point_bits_per_key = 12;
  LsmOptions without = with;
  without.point_filter = PointFilterKind::kNone;

  LsmTree db_with(with);
  LsmTree db_without(without);
  const uint64_t seed = TestSeed(21);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(100000, seed);
  for (uint64_t k : keys) {
    db_with.Put(k, 1);
    db_without.Put(k, 1);
  }
  const auto negatives = GenerateNegativeKeys(keys, 5000, seed + 1);
  db_with.ResetIo();
  db_without.ResetIo();
  for (uint64_t k : negatives) {
    db_with.Get(k);
    db_without.Get(k);
  }
  // Without filters every consulted run costs a read; with filters almost
  // none do.
  EXPECT_LT(db_with.io().data_reads * 20, db_without.io().data_reads);
}

TEST(LsmTree, MonkeyAllocationBeatsUniformOnNegativeLookups) {
  LsmOptions uniform;
  uniform.memtable_entries = 512;  // More levels: Monkey's win grows with L.
  uniform.point_bits_per_key = 8;
  uniform.allocation = FilterAllocation::kUniform;
  LsmOptions monkey = uniform;
  monkey.allocation = FilterAllocation::kMonkey;

  LsmTree db_u(uniform);
  LsmTree db_m(monkey);
  const uint64_t seed = TestSeed(23);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(200000, seed);
  for (uint64_t k : keys) {
    db_u.Put(k, 1);
    db_m.Put(k, 1);
  }
  const auto negatives = GenerateNegativeKeys(keys, 20000, seed + 1);
  db_u.ResetIo();
  db_m.ResetIo();
  for (uint64_t k : negatives) {
    db_u.Get(k);
    db_m.Get(k);
  }
  // Monkey: sum of false-probe rates converges instead of growing with
  // the number of levels.
  EXPECT_LT(db_m.io().false_probes, db_u.io().false_probes);
  // At comparable filter memory (within 2x).
  EXPECT_LT(db_m.TotalFilterBits(), db_u.TotalFilterBits() * 2);
}

TEST(LsmTree, RangeFilterCutsEmptyScanIos) {
  LsmOptions with;
  with.memtable_entries = 1024;
  with.range_filter = RangeFilterKind::kGrafite;
  with.range_bits_per_key = 14;
  LsmOptions without = with;
  without.range_filter = RangeFilterKind::kNone;

  LsmTree db_with(with);
  LsmTree db_without(without);
  const uint64_t seed = TestSeed(35);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  // Sparse keys so short scans are usually empty.
  for (int i = 0; i < 100000; ++i) {
    const uint64_t k = rng.Next() & ~uint64_t{0xFFF};
    db_with.Put(k, 1);
    db_without.Put(k, 1);
  }
  db_with.ResetIo();
  db_without.ResetIo();
  for (int q = 0; q < 2000; ++q) {
    const uint64_t lo = rng.Next() | 1;  // Avoid the key grid.
    db_with.Scan(lo, lo + 64);
    db_without.Scan(lo, lo + 64);
  }
  EXPECT_LT(db_with.io().data_reads * 5, db_without.io().data_reads);
}

TEST(LsmTree, TieringWritesLessThanLeveling) {
  LsmOptions level_opts = SmallOptions();
  LsmOptions tier_opts = SmallOptions();
  tier_opts.tiering = true;
  LsmTree leveled(level_opts);
  LsmTree tiered(tier_opts);
  const uint64_t seed = TestSeed(25);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(50000, seed);
  for (uint64_t k : keys) {
    leveled.Put(k, 1);
    tiered.Put(k, 1);
  }
  EXPECT_LT(tiered.WriteAmplification(), leveled.WriteAmplification());
}

class LsmFilterKinds : public ::testing::TestWithParam<PointFilterKind> {};

TEST_P(LsmFilterKinds, AllPointFilterKindsAreCorrect) {
  LsmOptions o = SmallOptions();
  o.point_filter = GetParam();
  LsmTree db(o);
  const uint64_t seed = TestSeed(26);
  BBF_ANNOUNCE_SEED(seed);
  const auto keys = GenerateDistinctKeys(20000, seed);
  for (uint64_t k : keys) db.Put(k, k ^ 0xF00);
  for (size_t i = 0; i < keys.size(); i += 7) {
    ASSERT_EQ(db.Get(keys[i]), std::optional<uint64_t>(keys[i] ^ 0xF00));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LsmFilterKinds,
    ::testing::Values(PointFilterKind::kNone, PointFilterKind::kBloom,
                      PointFilterKind::kBlockedBloom, PointFilterKind::kXor,
                      PointFilterKind::kRibbon, PointFilterKind::kCuckoo,
                      PointFilterKind::kQuotient),
    [](const ::testing::TestParamInfo<PointFilterKind>& info) {
      switch (info.param) {
        case PointFilterKind::kNone: return "None";
        case PointFilterKind::kBloom: return "Bloom";
        case PointFilterKind::kBlockedBloom: return "BlockedBloom";
        case PointFilterKind::kXor: return "Xor";
        case PointFilterKind::kRibbon: return "Ribbon";
        case PointFilterKind::kCuckoo: return "Cuckoo";
        case PointFilterKind::kQuotient: return "Quotient";
      }
      return "Unknown";
    });

class LsmRangeKinds : public ::testing::TestWithParam<RangeFilterKind> {};

TEST_P(LsmRangeKinds, AllRangeFilterKindsPreserveScans) {
  LsmOptions o = SmallOptions();
  o.range_filter = GetParam();
  LsmTree db(o);
  std::map<uint64_t, uint64_t> ref;
  const uint64_t seed = TestSeed(27);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t k = rng.NextBelow(1u << 24);
    db.Put(k, k + 1);
    ref[k] = k + 1;
  }
  for (int q = 0; q < 300; ++q) {
    const uint64_t lo = rng.NextBelow(1u << 24);
    const uint64_t hi = lo + rng.NextBelow(10000);
    const auto got = db.Scan(lo, hi);
    std::vector<std::pair<uint64_t, uint64_t>> expect;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
         ++it) {
      expect.emplace_back(it->first, it->second);
    }
    ASSERT_EQ(got, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LsmRangeKinds,
    ::testing::Values(RangeFilterKind::kNone, RangeFilterKind::kPrefixBloom,
                      RangeFilterKind::kSurf, RangeFilterKind::kRosetta,
                      RangeFilterKind::kSnarf, RangeFilterKind::kGrafite,
                      RangeFilterKind::kMemento),
    [](const ::testing::TestParamInfo<RangeFilterKind>& info) {
      switch (info.param) {
        case RangeFilterKind::kNone: return "None";
        case RangeFilterKind::kPrefixBloom: return "PrefixBloom";
        case RangeFilterKind::kSurf: return "Surf";
        case RangeFilterKind::kRosetta: return "Rosetta";
        case RangeFilterKind::kSnarf: return "Snarf";
        case RangeFilterKind::kGrafite: return "Grafite";
        case RangeFilterKind::kMemento: return "Memento";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace bbf::lsm
