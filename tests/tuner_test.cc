// The auto-tuning loop (DESIGN.md §15), layer by layer: the migratable-
// shard seam in ShardedFilter (journal, snapshot-drain-replay, abort
// safety, heterogeneous v3 snapshots), the obs signal pull, the stacked
// serving target, the Tuner's registry-driven decision table on synthetic
// signals, the closed loop end to end on a live adversarial-repeat
// workload, and the network front end's tuner-ctl opcode.

#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "apps/net/client.h"
#include "apps/net/server.h"
#include "apps/net/wire.h"
#include "core/filter_io.h"
#include "core/key.h"
#include "core/registry.h"
#include "core/sharded_filter.h"
#include "obs/export.h"
#include "obs/instrumented.h"
#include "obs/signals.h"
#include "tuning/stacked_serving.h"
#include "tuning/tuner.h"
#include "util/random.h"
#include "workload/generators.h"

#include "test_seed.h"

namespace bbf {
namespace {

ShardedFilter::ShardFactory FamilyFactory(std::string name, double fpr) {
  return [name = std::move(name), fpr](uint64_t cap) {
    return CreateFilter(name, cap, fpr);
  };
}

// The journal cap that builds a tracked (migratable) filter.
constexpr size_t kJournalCap = ShardedFilter::kDefaultJournalCap;

// --- The migratable-shard seam ----------------------------------------------

// Tracking is chosen when the filter is built (a journal cap), so there
// is no live arming step left to refuse on a filter with keys. The name
// is kept; the case now pins what the constructor decides: a cap tracks
// every shard, and no cap tracks none and refuses migration.
TEST(MigrationSeam, EnableMigrationRequiresEmptyFilter) {
  ShardedFilter tracked(1024, 4, FamilyFactory("quotient", 0.01), {},
                        kJournalCap);
  ShardedFilter untracked(1024, 4, FamilyFactory("quotient", 0.01));
  for (uint64_t k = 1; k <= 200; ++k) {
    ASSERT_TRUE(tracked.Insert(k));
    ASSERT_TRUE(untracked.Insert(k));
  }
  for (const auto& s : tracked.Stats()) EXPECT_GE(s.observed_fpr, 0.0);
  for (const auto& s : untracked.Stats()) EXPECT_EQ(s.observed_fpr, -1.0);

  EXPECT_TRUE(tracked.MigrateShard(0, FamilyFactory("cuckoo", 0.01)).ok);
  const auto refused = untracked.MigrateShard(0, FamilyFactory("cuckoo", 0.01));
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("not enabled"), std::string::npos)
      << refused.error;
  for (uint64_t k = 1; k <= 200; ++k) {
    EXPECT_TRUE(tracked.Contains(k));
    EXPECT_TRUE(untracked.Contains(k));
  }
}

TEST(MigrationSeam, MigrateShardSwapsFamilyWithoutLosingAckedKeys) {
  const uint64_t seed = TestSeed(9101);
  BBF_ANNOUNCE_SEED(seed);
  ShardedFilter f(4096, 4, FamilyFactory("quotient", 0.01), {}, kJournalCap);
  std::vector<uint64_t> acked;
  for (uint64_t k : GenerateDistinctKeys(3000, seed)) {
    if (Accepted(f.InsertWithStatus(k))) acked.push_back(k);
  }
  ASSERT_GT(acked.size(), 2500u);

  for (int s = 0; s < f.num_shards(); ++s) {
    const auto report =
        f.MigrateShard(static_cast<size_t>(s), FamilyFactory("cuckoo", 0.01));
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.to_family, "cuckoo");
    EXPECT_GT(report.snapshot_ops, 0u);
    EXPECT_GT(report.pause_ns, 0u);
  }
  // Zero acked-key loss is the migration contract.
  for (uint64_t k : acked) ASSERT_TRUE(f.Contains(k));
  for (const auto& s : f.Stats()) {
    EXPECT_EQ(s.family, "cuckoo");
    EXPECT_EQ(s.migrations, 1u);
    EXPECT_EQ(s.generations, 1u);
  }
  EXPECT_EQ(f.TotalMigrations(), 4u);
  EXPECT_EQ(f.NumKeys(), acked.size());
}

TEST(MigrationSeam, AbortedMigrationLeavesShardServing) {
  ShardedFilter f(1024, 2, FamilyFactory("quotient", 0.01), {}, kJournalCap);
  for (uint64_t k = 1; k <= 500; ++k) ASSERT_TRUE(f.Insert(k));

  const std::string before = f.Stats()[0].family;
  auto refuse = [](std::span<const FilterJournalOp>,
                   uint64_t) -> std::unique_ptr<Filter> { return nullptr; };
  const auto report = f.MigrateShard(0, refuse, FamilyFactory("cuckoo", 0.01));
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.error.empty());

  for (uint64_t k = 1; k <= 500; ++k) EXPECT_TRUE(f.Contains(k));
  EXPECT_EQ(f.Stats()[0].family, before);
  EXPECT_EQ(f.TotalMigrations(), 0u);
  // The abort did not wedge the shard: a later migration succeeds.
  EXPECT_TRUE(f.MigrateShard(0, FamilyFactory("cuckoo", 0.01)).ok);
}

TEST(MigrationSeam, JournalReplaysErasesIntoSuccessor) {
  ShardedFilter f(2048, 1, FamilyFactory("counting-quotient", 0.01), {},
                  kJournalCap);
  for (uint64_t k = 1; k <= 400; ++k) ASSERT_TRUE(f.Insert(k));
  for (uint64_t k = 1; k <= 400; k += 2) ASSERT_TRUE(f.Erase(k));

  const auto report = f.MigrateShard(0, FamilyFactory("counting-bloom", 0.01));
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(f.NumKeys(), 200u);
  for (uint64_t k = 2; k <= 400; k += 2) EXPECT_TRUE(f.Contains(k));
}

TEST(MigrationSeam, ShardIndexOutOfRangeFails) {
  ShardedFilter f(1024, 2, FamilyFactory("quotient", 0.01), {}, kJournalCap);
  const auto report = f.MigrateShard(99, FamilyFactory("cuckoo", 0.01));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("out of range"), std::string::npos);
}

TEST(MigrationSeam, BrokenJournalRefusesMigrationButKeepsServing) {
  ShardedFilter f(4096, 1, FamilyFactory("quotient", 0.01), {}, 64);
  for (uint64_t k = 1; k <= 300; ++k) ASSERT_TRUE(f.Insert(k));
  // Serving is unaffected past the cap; only migration is refused.
  for (uint64_t k = 1; k <= 300; ++k) EXPECT_TRUE(f.Contains(k));
  const auto report = f.MigrateShard(0, FamilyFactory("cuckoo", 0.01));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("journal"), std::string::npos);
}

TEST(MigrationSeam, HeterogeneousSnapshotRoundTripsWithTagBuilder) {
  const uint64_t seed = TestSeed(9102);
  BBF_ANNOUNCE_SEED(seed);
  ShardedFilter f(4096, 4, FamilyFactory("quotient", 0.01), {}, kJournalCap);
  std::vector<uint64_t> acked;
  for (uint64_t k : GenerateDistinctKeys(2000, seed)) {
    if (Accepted(f.InsertWithStatus(k))) acked.push_back(k);
  }
  ASSERT_TRUE(f.MigrateShard(0, FamilyFactory("cuckoo", 0.01)).ok);
  ASSERT_TRUE(f.MigrateShard(2, FamilyFactory("blocked-bloom", 0.01)).ok);
  std::ostringstream os;
  ASSERT_TRUE(f.Save(os));

  // With a registry-backed tag builder every migrated shard reloads in
  // its post-migration family.
  ShardedFilter loaded(4096, 4, FamilyFactory("quotient", 0.01));
  loaded.SetSnapshotTagBuilder([](std::string_view tag, uint64_t cap) {
    return CreateFilterForTag(tag, cap);
  });
  std::istringstream is(os.str());
  ShardedFilter::LoadReport report;
  ASSERT_TRUE(loaded.LoadWithReport(is, &report));
  EXPECT_TRUE(report.AllHealthy());
  const auto stats = loaded.Stats();
  EXPECT_EQ(stats[0].family, "cuckoo");
  EXPECT_EQ(stats[1].family, "quotient");
  EXPECT_EQ(stats[2].family, "blocked-bloom");
  EXPECT_EQ(stats[3].family, "quotient");
  for (uint64_t k : acked) ASSERT_TRUE(loaded.Contains(k));
  EXPECT_EQ(loaded.NumKeys(), f.NumKeys());
}

TEST(MigrationSeam, ForeignShardsQuarantineWithoutTagBuilder) {
  ShardedFilter f(4096, 4, FamilyFactory("quotient", 0.01), {}, kJournalCap);
  for (uint64_t k = 1; k <= 1000; ++k) f.Insert(k);
  ASSERT_TRUE(f.MigrateShard(1, FamilyFactory("cuckoo", 0.01)).ok);
  std::ostringstream os;
  ASSERT_TRUE(f.Save(os));

  ShardedFilter loaded(4096, 4, FamilyFactory("quotient", 0.01));
  std::istringstream is(os.str());
  ShardedFilter::LoadReport report;
  ASSERT_TRUE(loaded.LoadWithReport(is, &report));
  EXPECT_EQ(report.quarantined, (std::vector<size_t>{1}));
  EXPECT_EQ(report.healthy_shards, 3u);
  // Quarantined shard came back empty in the factory family.
  EXPECT_EQ(loaded.Stats()[1].family, "quotient");
  EXPECT_EQ(loaded.Stats()[1].num_keys, 0u);
}

TEST(MigrationSeam, EveryShardScoresItsShareOfTheFprSample) {
  // The estimator samples on bits routing leaves free, so a power-of-two
  // shard count still spreads the sample over every shard. Cuckoo shards
  // would publish were they untracked; tracked, their lookups take the
  // lock and are scored like quotient's.
  const uint64_t seed = TestSeed(9105);
  BBF_ANNOUNCE_SEED(seed);
  for (const char* family : {"quotient", "cuckoo"}) {
    SCOPED_TRACE(family);
    ShardedFilter f(40000, 16, FamilyFactory(family, 0.01), {}, kJournalCap);
    const std::vector<uint64_t> keys = GenerateDistinctKeys(20000, seed);
    for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
    for (uint64_t k : GenerateNegativeKeys(keys, 40000, seed + 1)) {
      f.Contains(k);
    }
    const auto stats = f.Stats();
    for (size_t s = 0; s < stats.size(); ++s) {
      EXPECT_GT(stats[s].fpr_negative_lookups, 0u) << "shard " << s;
    }
  }
}

TEST(MigrationSeam, LoadedShardsAreUntrackedAndEmptyRebuildsTracked) {
  // A loaded shard's keys have no op history, so an estimator would score
  // every lookup of them as a false positive: it has none, and no journal.
  // A shard rebuilt empty by quarantine is tracked from its first op.
  const uint64_t seed = TestSeed(9106);
  BBF_ANNOUNCE_SEED(seed);
  ShardedFilter saved(40000, 4, FamilyFactory("quotient", 0.01), {},
                      kJournalCap);
  const std::vector<uint64_t> keys = GenerateDistinctKeys(40000, seed);
  for (uint64_t k : keys) ASSERT_TRUE(saved.Insert(k));
  // Shard 1 moves to a family the loader below cannot build.
  ASSERT_TRUE(saved.MigrateShard(1, FamilyFactory("cuckoo", 0.01)).ok);
  std::stringstream snapshot;
  ASSERT_TRUE(saved.Save(snapshot));

  ShardedFilter loaded(40000, 4, FamilyFactory("quotient", 0.01), {},
                       kJournalCap);
  ShardedFilter::LoadReport report;
  ASSERT_TRUE(loaded.LoadWithReport(snapshot, &report));
  ASSERT_EQ(report.quarantined, (std::vector<size_t>{1}));
  for (uint64_t k : keys) loaded.Contains(k);
  const auto stats = loaded.Stats();
  for (size_t s = 0; s < stats.size(); ++s) {
    if (s == 1) {
      EXPECT_GE(stats[s].observed_fpr, 0.0);
    } else {
      EXPECT_EQ(stats[s].observed_fpr, -1.0) << "shard " << s;
      EXPECT_EQ(stats[s].fpr_negative_lookups, 0u) << "shard " << s;
    }
  }
  EXPECT_FALSE(loaded.MigrateShard(0, FamilyFactory("cuckoo", 0.01)).ok);
  EXPECT_TRUE(loaded.MigrateShard(1, FamilyFactory("cuckoo", 0.01)).ok);
}

// --- Observability pull API -------------------------------------------------

TEST(Signals, PullReadsTheShardedSurface) {
  auto inner = std::make_unique<ShardedFilter>(
      4096, 4, FamilyFactory("quotient", 0.01), SaturationConfig{},
      kJournalCap);
  obs::InstrumentedFilter filter(std::move(inner), 0.01);
  for (uint64_t k = 1; k <= 800; ++k) filter.Insert(k);
  for (uint64_t k = 100000; k <= 101000; ++k) filter.Contains(k);

  const obs::TunerSignals s = obs::PullTunerSignals(filter);
  EXPECT_TRUE(s.sharded);
  ASSERT_EQ(s.shards.size(), 4u);
  EXPECT_DOUBLE_EQ(s.configured_epsilon, 0.01);
  uint64_t shard_total = 0;
  for (const auto& sh : s.shards) {
    shard_total += sh.num_keys;
    EXPECT_EQ(sh.family, "quotient");
    EXPECT_GE(sh.observed_fpr, 0.0) << "track_shard_fpr column missing";
  }
  EXPECT_EQ(shard_total, filter.NumKeys());
  EXPECT_LT(s.hottest_shard, 4u);
}

TEST(Signals, NonShardedFilterYieldsScalarSignalsAndIdleTuner) {
  obs::InstrumentedFilter filter(CreateFilter("bloom", 1000, 0.01), 0.01);
  const obs::TunerSignals s = obs::PullTunerSignals(filter);
  EXPECT_FALSE(s.sharded);
  EXPECT_TRUE(s.shards.empty());

  tuning::Tuner tuner(filter);
  EXPECT_FALSE(tuner.valid());
  const auto r = tuner.Poll();
  EXPECT_EQ(r.decision.action, tuning::TunerAction::kNone);
  EXPECT_FALSE(r.acted);
}

// --- Stacked serving target -------------------------------------------------

TEST(StackedServing, NetPositivesCancelsErasesAndInvertsTheMix) {
  std::vector<FilterJournalOp> ops;
  const uint64_t a = 101, b = 202, c = 303;
  for (uint64_t k : {a, b, c}) ops.push_back({HashedKey(k).value(), 0});
  ops.push_back({HashedKey(b).value(), 1});
  auto pos = tuning::StackedServingFilter::NetPositives(ops);
  std::sort(pos.begin(), pos.end());
  EXPECT_EQ(pos, (std::vector<uint64_t>{a, c}));
}

TEST(StackedServing, ServesPositivesSuppressesHotNegativesAcceptsInserts) {
  std::vector<uint64_t> positives, negatives;
  for (uint64_t k = 1; k <= 512; ++k) positives.push_back(k);
  for (uint64_t k = 10001; k <= 10256; ++k) negatives.push_back(k);
  tuning::StackedServingFilter f(positives, negatives, 1024, {});
  EXPECT_EQ(f.Name(), "stacked-serving");
  EXPECT_GE(f.front_layers(), 2u);

  for (uint64_t k : positives) ASSERT_TRUE(f.Contains(k));
  // Trained hot negatives pass only by colliding through two layers
  // (~eps^2); a plain bloom at the same budget would leak ~1% of them.
  size_t hot_fp = 0;
  for (uint64_t k : negatives) hot_fp += f.Contains(k);
  EXPECT_LE(hot_fp, 5u);

  // Post-build inserts land in the overflow and serve immediately.
  for (uint64_t k = 20001; k <= 20100; ++k) ASSERT_TRUE(f.Insert(k));
  for (uint64_t k = 20001; k <= 20100; ++k) EXPECT_TRUE(f.Contains(k));
  EXPECT_EQ(f.NumKeys(), positives.size() + 100);
  EXPECT_GT(f.SpaceBits(), 0u);
}

TEST(StackedServing, SnapshotRoundTripsThroughEmptyShell) {
  std::vector<uint64_t> positives, negatives;
  for (uint64_t k = 1; k <= 300; ++k) positives.push_back(k);
  for (uint64_t k = 50001; k <= 50100; ++k) negatives.push_back(k);
  tuning::StackedServingFilter f(positives, negatives, 600, {});
  for (uint64_t k = 70001; k <= 70050; ++k) ASSERT_TRUE(f.Insert(k));

  std::ostringstream os;
  ASSERT_TRUE(f.Save(os));
  tuning::StackedServingFilter loaded(1);
  std::istringstream is(os.str());
  ASSERT_TRUE(loaded.Load(is));

  EXPECT_EQ(loaded.front_layers(), f.front_layers());
  EXPECT_EQ(loaded.front_keys(), f.front_keys());
  EXPECT_EQ(loaded.NumKeys(), f.NumKeys());
  for (uint64_t k : positives) EXPECT_TRUE(loaded.Contains(k));
  for (uint64_t k = 70001; k <= 70050; ++k) EXPECT_TRUE(loaded.Contains(k));
  // The rebuild is exact: hot-negative answers match bit for bit.
  for (uint64_t k : negatives) {
    EXPECT_EQ(loaded.Contains(k), f.Contains(k)) << k;
  }

  // A corrupt frame is rejected without disturbing the target.
  std::string bytes = os.str();
  bytes[bytes.size() / 2] ^= 0x40;
  std::istringstream bad(bytes);
  tuning::StackedServingFilter untouched(1);
  EXPECT_FALSE(untouched.Load(bad));
  EXPECT_EQ(untouched.NumKeys(), 0u);
}

// --- The decision table on synthetic signals --------------------------------

obs::TunerSignals ShardedSignals(size_t num_shards) {
  obs::TunerSignals s;
  s.sharded = true;
  s.shards.resize(num_shards);
  for (auto& sh : s.shards) {
    sh.family = "blocked-bloom";
    sh.num_keys = 1000;
    sh.load_factor = 0.5;
    sh.observed_fpr = 0.0;
  }
  return s;
}

class TunerTableTest : public ::testing::Test {
 protected:
  TunerTableTest()
      : filter_(CreateFilter("bloom", 100, 0.01), 0.01), tuner_(filter_) {}
  tuning::TunerDecision Eval(const obs::TunerSignals& s) {
    return tuner_.Evaluate(s);
  }
  obs::InstrumentedFilter filter_;
  tuning::Tuner tuner_;
};

TEST_F(TunerTableTest, QuietSignalsDecideNothing) {
  const auto d = Eval(ShardedSignals(4));
  EXPECT_EQ(d.action, tuning::TunerAction::kNone);
  EXPECT_EQ(d.trigger, tuning::TunerTrigger::kNone);
}

TEST_F(TunerTableTest, RepeatedFpMigratesToAdaptiveFamily) {
  auto s = ShardedSignals(4);
  s.shards[2].fpr_repeated_keys = 3;
  const auto d = Eval(s);
  EXPECT_EQ(d.action, tuning::TunerAction::kMigrateAdaptive);
  EXPECT_EQ(d.trigger, tuning::TunerTrigger::kRepeatedFp);
  EXPECT_EQ(d.shard, 2u);
  EXPECT_EQ(d.from_family, "blocked-bloom");
  EXPECT_EQ(d.to_family, "adaptive-cuckoo");
  EXPECT_NE(d.reason.find("repeat-hot"), std::string::npos);
}

TEST_F(TunerTableTest, RepeatedFpOnAdaptiveFamilyDoesNotRetrigger) {
  auto s = ShardedSignals(4);
  s.shards[2].family = "adaptive-cuckoo";
  s.shards[2].fpr_repeated_keys = 3;
  const auto d = Eval(s);
  EXPECT_EQ(d.action, tuning::TunerAction::kNone);
}

TEST_F(TunerTableTest, WholeFilterSketchFallsBackToWorstFprShard) {
  auto s = ShardedSignals(4);
  s.fpr.fp_repeated_keys = 5;
  s.worst_fpr_shard = 1;
  const auto d = Eval(s);
  EXPECT_EQ(d.action, tuning::TunerAction::kMigrateAdaptive);
  EXPECT_EQ(d.shard, 1u);
}

TEST_F(TunerTableTest, FprBreachNeedsCiNotJustThePointEstimate) {
  auto s = ShardedSignals(4);
  s.shards[0].observed_fpr = 0.08;  // Noisy point estimate...
  s.shards[0].fpr_ci_low = 0.004;   // ...not provably above budget.
  s.shards[0].fpr_negative_lookups = 2000;
  EXPECT_EQ(Eval(s).action, tuning::TunerAction::kNone);

  s.shards[0].fpr_ci_low = 0.03;  // Now provable.
  const auto d = Eval(s);
  EXPECT_EQ(d.action, tuning::TunerAction::kMigrateTighterFpr);
  EXPECT_EQ(d.trigger, tuning::TunerTrigger::kFprBreach);
  EXPECT_EQ(d.shard, 0u);
  EXPECT_EQ(d.to_family, "blocked-bloom");
  EXPECT_DOUBLE_EQ(d.target_fpr, 0.01 * 0.25);
}

TEST_F(TunerTableTest, FprBreachNeedsEnoughNegativeSamples) {
  auto s = ShardedSignals(4);
  s.shards[0].observed_fpr = 0.08;
  s.shards[0].fpr_ci_low = 0.05;
  s.shards[0].fpr_negative_lookups = 100;  // Below min_negative_samples.
  EXPECT_EQ(Eval(s).action, tuning::TunerAction::kNone);
}

TEST_F(TunerTableTest, LoadKneeRebalancesWithCapacityBoost) {
  auto s = ShardedSignals(4);
  s.shards[3].load_factor = 0.97;
  const auto d = Eval(s);
  EXPECT_EQ(d.action, tuning::TunerAction::kRebalanceShard);
  EXPECT_EQ(d.trigger, tuning::TunerTrigger::kLoadKnee);
  EXPECT_EQ(d.shard, 3u);
  EXPECT_EQ(d.capacity_boost, 2u);
}

TEST_F(TunerTableTest, SkewRebalancesTheHottestShard) {
  // The mean includes the hot shard, so with ratio 4 the trigger needs
  // n > 4 shards: here 20000 > 4 * (20000 + 7000) / 8 = 13500.
  auto s = ShardedSignals(8);
  s.shards[1].num_keys = 20000;
  s.hottest_shard = 1;
  const auto d = Eval(s);
  EXPECT_EQ(d.action, tuning::TunerAction::kRebalanceShard);
  EXPECT_EQ(d.trigger, tuning::TunerTrigger::kShardSkew);
  EXPECT_EQ(d.shard, 1u);
}

TEST_F(TunerTableTest, RepeatedFpOutranksBreachOutranksKnee) {
  auto s = ShardedSignals(4);
  s.shards[0].fpr_repeated_keys = 3;
  s.shards[1].observed_fpr = 0.08;
  s.shards[1].fpr_ci_low = 0.05;
  s.shards[1].fpr_negative_lookups = 2000;
  s.shards[2].load_factor = 0.99;
  EXPECT_EQ(Eval(s).trigger, tuning::TunerTrigger::kRepeatedFp);

  s.shards[0].fpr_repeated_keys = 0;
  EXPECT_EQ(Eval(s).trigger, tuning::TunerTrigger::kFprBreach);

  s.shards[1].fpr_ci_low = 0.0;
  s.shards[1].observed_fpr = 0.0;
  EXPECT_EQ(Eval(s).trigger, tuning::TunerTrigger::kLoadKnee);
}

// --- The closed loop, end to end --------------------------------------------

// Builds a 1-shard blocked-bloom filter at a deliberately loose epsilon,
// inserts `inserted`, and returns in-domain (estimator-scored) negative
// keys that the filter false-positives on.
std::vector<uint64_t> FindInDomainFalsePositives(
    const obs::InstrumentedFilter& filter, const std::vector<uint64_t>& inserted,
    size_t want, uint64_t seed) {
  std::unordered_set<uint64_t> present(inserted.begin(), inserted.end());
  SplitMix64 rng(seed);
  std::vector<uint64_t> fps;
  for (int attempts = 0; fps.size() < want && attempts < 4'000'000;
       ++attempts) {
    const uint64_t k = rng.Next();
    if (present.contains(k)) continue;
    if (!ObservedFprEstimator::InDomain(HashedKey(k))) continue;
    if (filter.Contains(k)) fps.push_back(k);
  }
  return fps;
}

TEST(TunerLoop, AdversarialRepeatsMigrateToAdaptiveAndRecover) {
  const uint64_t seed = TestSeed(9103);
  BBF_ANNOUNCE_SEED(seed);
  auto inner = std::make_unique<ShardedFilter>(
      512, 1, FamilyFactory("blocked-bloom", 0.25), SaturationConfig{},
      kJournalCap);
  ShardedFilter* sharded = inner.get();
  obs::InstrumentedFilter filter(std::move(inner), 0.25);

  tuning::TunerConfig cfg;
  cfg.fpr_budget = 0.01;
  tuning::Tuner tuner(filter, cfg);
  ASSERT_TRUE(tuner.valid());

  const std::vector<uint64_t> keys = GenerateDistinctKeys(400, seed);
  for (uint64_t k : keys) ASSERT_TRUE(filter.Insert(k));

  // An adversary replays a handful of discovered false positives; the
  // per-shard sketch marks them repeat-hot.
  const auto hot = FindInDomainFalsePositives(filter, keys, 3, seed + 1);
  ASSERT_EQ(hot.size(), 3u) << "loose blocked-bloom must yield FPs";
  for (int round = 0; round < 12; ++round) {
    for (uint64_t k : hot) EXPECT_TRUE(filter.Contains(k));
  }
  ASSERT_GE(sharded->Stats()[0].fpr_repeated_keys, 2u);

  const auto r = tuner.Poll();
  EXPECT_EQ(r.decision.action, tuning::TunerAction::kMigrateAdaptive);
  EXPECT_EQ(r.decision.trigger, tuning::TunerTrigger::kRepeatedFp);
  EXPECT_EQ(r.decision.to_family, "adaptive-cuckoo");
  ASSERT_TRUE(r.acted);
  ASSERT_TRUE(r.report.ok) << r.report.error;

  // The shard swapped families online, kept every acked key, and the
  // observation window restarted clean.
  const auto stats = sharded->Stats();
  EXPECT_EQ(stats[0].family, "adaptive-cuckoo");
  EXPECT_EQ(stats[0].migrations, 1u);
  EXPECT_EQ(stats[0].fpr_repeated_keys, 0u);
  for (uint64_t k : keys) ASSERT_TRUE(filter.Contains(k));

  // The decision is visible through every surface: history, status text,
  // counters, and both exporters.
  ASSERT_EQ(tuner.History().size(), 1u);
  const std::string status = tuner.StatusText();
  EXPECT_NE(status.find("migrate-adaptive"), std::string::npos);
  EXPECT_NE(status.find("adaptive-cuckoo"), std::string::npos);

  obs::MetricsRegistry registry;
  tuner.RegisterMetrics(registry, "tuner");
  const auto entries = registry.Snapshot();
  const std::string prom = obs::RenderPrometheus(entries);
  EXPECT_NE(prom.find("bbf_tuner_migrations_total{filter=\"tuner\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(
      prom.find("bbf_tuner_trigger_repeated_fp_total{filter=\"tuner\"} 1"),
      std::string::npos);
  const std::string json = obs::RenderJson(entries);
  EXPECT_NE(json.find("\"tuner_migrations_total\": 1"), std::string::npos)
      << json;

  // Post-migration the cooldown gauge is rearmed.
  bool saw_cooldown = false;
  for (const auto& [name, value] : entries[0].snapshot.gauges) {
    if (name == "tuner_cooldown_polls_left") {
      saw_cooldown = true;
      EXPECT_DOUBLE_EQ(value, 2.0);
    }
  }
  EXPECT_TRUE(saw_cooldown);
}

TEST(TunerLoop, FprBreachStacksWhenTrainingSampleAvailableAndRecovers) {
  const uint64_t seed = TestSeed(9104);
  BBF_ANNOUNCE_SEED(seed);
  auto inner = std::make_unique<ShardedFilter>(
      512, 1, FamilyFactory("blocked-bloom", 0.25),
      SaturationConfig{}, kJournalCap);
  ShardedFilter* sharded = inner.get();
  obs::InstrumentedFilter filter(std::move(inner), 0.25);

  const std::vector<uint64_t> keys = GenerateDistinctKeys(400, seed);
  for (uint64_t k : keys) ASSERT_TRUE(filter.Insert(k));

  // A hot-negative working set: in-domain keys the workload keeps
  // probing. Scoring them gives the estimator a solid (>=512 sample)
  // Wilson interval far above the 1% budget at epsilon 0.25.
  std::unordered_set<uint64_t> present(keys.begin(), keys.end());
  SplitMix64 rng(seed + 7);
  std::vector<uint64_t> hot_negatives;
  while (hot_negatives.size() < 900) {
    const uint64_t k = rng.Next();
    if (present.contains(k)) continue;
    if (!ObservedFprEstimator::InDomain(HashedKey(k))) continue;
    hot_negatives.push_back(k);
  }
  for (uint64_t k : hot_negatives) filter.Contains(k);
  {
    const auto sh = sharded->Stats()[0];
    ASSERT_GE(sh.fpr_negative_lookups, 512u);
    ASSERT_GT(sh.fpr_ci_low, 0.01);
  }

  tuning::TunerConfig cfg;
  cfg.fpr_budget = 0.01;
  cfg.adapt_candidates.clear();  // Force the FPR policies, not repeat-FP.
  cfg.training_sample = [&hot_negatives] { return hot_negatives; };
  tuning::Tuner tuner(filter, cfg);

  const auto r = tuner.Poll();
  EXPECT_EQ(r.decision.action, tuning::TunerAction::kMigrateStacked);
  EXPECT_EQ(r.decision.trigger, tuning::TunerTrigger::kFprBreach);
  ASSERT_TRUE(r.acted);
  ASSERT_TRUE(r.report.ok) << r.report.error;
  EXPECT_EQ(r.report.to_family, "stacked-serving");

  // Every acked key survived the stack swap.
  for (uint64_t k : keys) ASSERT_TRUE(filter.Contains(k));
  EXPECT_EQ(sharded->Stats()[0].family, "stacked-serving");

  // Replay the same hot-negative workload: the stacked front was trained
  // on exactly these keys, so the observed FPR lands under budget.
  for (uint64_t k : hot_negatives) filter.Contains(k);
  const auto after = sharded->Stats()[0];
  ASSERT_GE(after.fpr_negative_lookups, 512u);
  EXPECT_LT(after.observed_fpr, 0.01)
      << "stacked shard must recover under the FPR budget";
}

TEST(TunerLoop, FprBreachOnANonZeroShardMigratesThatShard) {
  // Only shard 2 is built at a loose epsilon. Every shard scores its share
  // of the FPR sample, so the tuner finds the breach there.
  const uint64_t seed = TestSeed(9107);
  BBF_ANNOUNCE_SEED(seed);
  int built = 0;
  auto inner = std::make_unique<ShardedFilter>(
      2048, 4,
      [&built](uint64_t cap) {
        return CreateFilter("blocked-bloom", cap, built++ == 2 ? 0.25 : 1e-4);
      },
      SaturationConfig{}, kJournalCap);
  ShardedFilter* sharded = inner.get();
  obs::InstrumentedFilter filter(std::move(inner), 0.01);
  const std::vector<uint64_t> keys = GenerateDistinctKeys(2000, seed);
  for (uint64_t k : keys) ASSERT_TRUE(filter.Insert(k));
  const std::unordered_set<uint64_t> present(keys.begin(), keys.end());
  SplitMix64 rng(seed + 1);
  for (int scored = 0; scored < 4000;) {
    const uint64_t k = rng.Next();
    if (present.contains(k) || !ObservedFprEstimator::InDomain(HashedKey(k))) {
      continue;
    }
    filter.Contains(k);
    ++scored;
  }

  tuning::TunerConfig cfg;
  cfg.fpr_budget = 0.01;
  cfg.adapt_candidates.clear();  // Force the FPR policies, not repeat-FP.
  tuning::Tuner tuner(filter, cfg);
  const auto r = tuner.Poll();
  EXPECT_EQ(r.decision.trigger, tuning::TunerTrigger::kFprBreach);
  EXPECT_EQ(r.decision.shard, 2u);
  ASSERT_TRUE(r.acted);
  ASSERT_TRUE(r.report.ok) << r.report.error;
  const auto stats = sharded->Stats();
  for (size_t s = 0; s < stats.size(); ++s) {
    EXPECT_EQ(stats[s].migrations, s == 2 ? 1u : 0u) << "shard " << s;
  }
  for (uint64_t k : keys) ASSERT_TRUE(filter.Contains(k));
}

TEST(TunerLoop, StackedMigrationRefusesEraseWorkloads) {
  const uint64_t seed = TestSeed(9105);
  BBF_ANNOUNCE_SEED(seed);
  auto inner = std::make_unique<ShardedFilter>(
      512, 1, FamilyFactory("counting-quotient", 0.25),
      SaturationConfig{}, kJournalCap);
  ShardedFilter* sharded = inner.get();
  obs::InstrumentedFilter filter(std::move(inner), 0.25);

  const std::vector<uint64_t> keys = GenerateDistinctKeys(400, seed);
  for (uint64_t k : keys) ASSERT_TRUE(filter.Insert(k));
  ASSERT_TRUE(filter.Erase(keys[0]));  // The journal now holds an erase.

  std::unordered_set<uint64_t> present(keys.begin(), keys.end());
  SplitMix64 rng(seed + 7);
  size_t scored = 0;
  while (scored < 900) {
    const uint64_t k = rng.Next();
    if (present.contains(k)) continue;
    if (!ObservedFprEstimator::InDomain(HashedKey(k))) continue;
    filter.Contains(k);
    ++scored;
  }
  ASSERT_GT(sharded->Stats()[0].fpr_ci_low, 0.01);

  tuning::TunerConfig cfg;
  cfg.fpr_budget = 0.01;
  cfg.adapt_candidates.clear();
  cfg.training_sample = [] { return std::vector<uint64_t>{1, 2, 3}; };
  tuning::Tuner tuner(filter, cfg);

  const auto r = tuner.Poll();
  EXPECT_EQ(r.decision.action, tuning::TunerAction::kMigrateStacked);
  ASSERT_TRUE(r.acted);
  // The insert-only guard aborts; the shard keeps serving on its family.
  EXPECT_FALSE(r.report.ok);
  EXPECT_NE(r.decision.reason.find("migration failed"), std::string::npos);
  EXPECT_EQ(sharded->Stats()[0].family, "counting-quotient");
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_TRUE(filter.Contains(keys[i]));
  }
  bool saw_failures = false;
  for (const auto& [name, value] : tuner.MetricsSnapshot().counters) {
    if (name == "tuner_migration_failures_total") {
      saw_failures = true;
      EXPECT_EQ(value, 1u);
    }
  }
  EXPECT_TRUE(saw_failures);
}

TEST(TunerLoop, StackedShardSnapshotReloadsThroughTheTunerTagBuilder) {
  const uint64_t seed = TestSeed(9106);
  BBF_ANNOUNCE_SEED(seed);
  auto inner = std::make_unique<ShardedFilter>(
      512, 1, FamilyFactory("blocked-bloom", 0.25),
      SaturationConfig{}, kJournalCap);
  ShardedFilter* sharded = inner.get();
  obs::InstrumentedFilter filter(std::move(inner), 0.25);
  const std::vector<uint64_t> keys = GenerateDistinctKeys(300, seed);
  for (uint64_t k : keys) ASSERT_TRUE(filter.Insert(k));

  tuning::TunerConfig cfg;
  cfg.fpr_budget = 0.01;
  tuning::Tuner tuner(filter, cfg);
  // Stack the shard directly through the seam (policy exercised above).
  const auto report = sharded->MigrateShard(
      0,
      [](std::span<const FilterJournalOp> ops,
         uint64_t capacity) -> std::unique_ptr<Filter> {
        return std::make_unique<tuning::StackedServingFilter>(
            tuning::StackedServingFilter::NetPositives(ops),
            std::vector<uint64_t>{}, capacity,
            tuning::StackedServingFilter::Params{});
      },
      FamilyFactory("blocked-bloom", 0.01));
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(sharded->Stats()[0].family, "stacked-serving");

  std::ostringstream os;
  ASSERT_TRUE(sharded->Save(os));

  // A fresh tuner-managed filter reloads the stacked shard: the Tuner's
  // tag builder resolves "stacked-serving" (absent from the registry).
  auto inner2 = std::make_unique<ShardedFilter>(
      512, 1, FamilyFactory("blocked-bloom", 0.25));
  ShardedFilter* sharded2 = inner2.get();
  obs::InstrumentedFilter filter2(std::move(inner2), 0.25);
  tuning::Tuner tuner2(filter2, cfg);
  std::istringstream is(os.str());
  ShardedFilter::LoadReport load_report;
  ASSERT_TRUE(sharded2->LoadWithReport(is, &load_report));
  EXPECT_TRUE(load_report.AllHealthy());
  EXPECT_EQ(sharded2->Stats()[0].family, "stacked-serving");
  for (uint64_t k : keys) ASSERT_TRUE(filter2.Contains(k));
}

// --- The network control surface --------------------------------------------

TEST(TunerNet, TunerCtlIsUnsupportedWithoutATuner) {
  auto filter =
      std::make_unique<ShardedFilter>(1 << 12, 4, FamilyFactory("quotient", 0.01));
  net::Server server(filter.get());
  ASSERT_TRUE(server.Start());
  int sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  server.AdoptConnection(sp[1]);
  net::SyncClient client(sp[0]);
  std::string text;
  EXPECT_EQ(client.TunerCtl(net::kTunerCmdStatus, &text),
            net::FrameStatus::kUnsupported);
  server.Shutdown();
}

TEST(TunerNet, TunerCtlServesStatusManualPollAndRejectsUnknownCommands) {
  auto inner = std::make_unique<ShardedFilter>(
      1 << 12, 4, FamilyFactory("quotient", 0.01), SaturationConfig{},
      kJournalCap);
  ShardedFilter* sharded = inner.get();
  obs::InstrumentedFilter filter(std::move(inner), 0.01);
  tuning::Tuner tuner(filter);

  net::Server server(sharded);
  server.set_tuner_control(tuner.WireControl());
  ASSERT_TRUE(server.Start());
  int sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  server.AdoptConnection(sp[1]);
  net::SyncClient client(sp[0]);

  std::string text;
  ASSERT_EQ(client.TunerCtl(net::kTunerCmdStatus, &text),
            net::FrameStatus::kOk);
  EXPECT_NE(text.find("tuner polls="), std::string::npos) << text;
  EXPECT_NE(text.find("shard 0:"), std::string::npos) << text;

  ASSERT_EQ(client.TunerCtl(net::kTunerCmdPoll, &text), net::FrameStatus::kOk);
  EXPECT_NE(text.find("action=none"), std::string::npos) << text;
  EXPECT_NE(text.find("no policy tripped"), std::string::npos) << text;
  EXPECT_EQ(tuner.MetricsSnapshot().counters[0].value, 1u);  // One poll.

  ASSERT_EQ(client.TunerCtl(9, &text), net::FrameStatus::kOk);
  EXPECT_NE(text.find("unknown tuner command 9"), std::string::npos);

  bool saw_counter = false;
  for (const auto& [name, value] : server.MetricsSnap().counters) {
    if (name == "net_tuner_ctl_total") {
      saw_counter = true;
      EXPECT_EQ(value, 3u);
    }
  }
  EXPECT_TRUE(saw_counter);
  server.Shutdown();
}

}  // namespace
}  // namespace bbf
