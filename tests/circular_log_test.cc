// Tests for the circular-log storage engine (§3.1): correctness against a
// reference model, maplet expansion vs rebuild strategies, GC.

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>

#include <gtest/gtest.h>

#include "apps/lsm/circular_log.h"
#include "quotient/expanding_quotient_maplet.h"
#include "util/random.h"
#include "workload/generators.h"

namespace bbf::lsm {
namespace {

TEST(ExpandingQuotientMaplet, GrowsAndKeepsAssociations) {
  bbf::ExpandingQuotientMaplet m(8, 16, 16);
  const auto keys = bbf::GenerateDistinctKeys(20000, 61);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(m.Insert(keys[i], i & 0xFFFF));
  }
  EXPECT_GE(m.expansions(), 5);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    const auto vals = m.Lookup(keys[i]);
    ASSERT_FALSE(vals.empty());
    bool found = false;
    for (uint64_t v : vals) found |= v == (i & 0xFFFF);
    ASSERT_TRUE(found) << i;
  }
}

TEST(ExpandingQuotientMaplet, EraseWorksAcrossExpansions) {
  bbf::ExpandingQuotientMaplet m(6, 14, 8);
  const auto keys = bbf::GenerateDistinctKeys(2000, 62);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(m.Insert(keys[i], i & 0xFF));
  }
  ASSERT_GT(m.expansions(), 0);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(m.Erase(keys[i], i & 0xFF)) << i;
  }
  EXPECT_EQ(m.NumEntries(), 0u);
}

class CircularLogModel
    : public ::testing::TestWithParam<CircularLog::ExpandStrategy> {};

TEST_P(CircularLogModel, RandomOpsMatchReference) {
  CircularLog::Options o;
  o.expand = GetParam();
  o.initial_q_bits = 8;
  CircularLog db(o);
  std::map<uint64_t, uint64_t> ref;
  bbf::SplitMix64 rng(63);
  for (int op = 0; op < 30000; ++op) {
    const uint64_t key = rng.NextBelow(3000) + 1;
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
        ASSERT_EQ(got, std::nullopt) << "op " << op;
      } else {
        ASSERT_EQ(got, std::optional<uint64_t>(it->second)) << "op " << op;
      }
    }
  }
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(db.Get(k), std::optional<uint64_t>(v));
  }
  EXPECT_EQ(db.live_entries(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, CircularLogModel,
    ::testing::Values(CircularLog::ExpandStrategy::kExpandMaplet,
                      CircularLog::ExpandStrategy::kRebuildFromLog),
    [](const ::testing::TestParamInfo<CircularLog::ExpandStrategy>& info) {
      return info.param == CircularLog::ExpandStrategy::kExpandMaplet
                 ? "ExpandMaplet"
                 : "RebuildFromLog";
    });

TEST(CircularLog, ExpandStrategyAvoidsRebuildIo) {
  const auto keys = bbf::GenerateDistinctKeys(60000, 64);
  CircularLog::Options expand_opts;
  expand_opts.expand = CircularLog::ExpandStrategy::kExpandMaplet;
  expand_opts.initial_q_bits = 10;
  CircularLog::Options rebuild_opts = expand_opts;
  rebuild_opts.expand = CircularLog::ExpandStrategy::kRebuildFromLog;

  CircularLog expanding(expand_opts);
  CircularLog rebuilding(rebuild_opts);
  for (uint64_t k : keys) {
    expanding.Put(k, k);
    rebuilding.Put(k, k);
  }
  EXPECT_GT(expanding.maplet_expansions(), 3);
  EXPECT_EQ(expanding.rebuilds(), 0u);
  EXPECT_GT(rebuilding.rebuilds(), 3u);
  // Rebuilding scans the log on every growth step: far more read I/O.
  EXPECT_GT(rebuilding.io().data_reads, expanding.io().data_reads * 2);
  // But its fingerprints stay full-length, so fewer wasted probes.
  EXPECT_LE(rebuilding.io().false_probes, expanding.io().false_probes);
}

TEST(CircularLog, GcCompactsDeadRecords) {
  CircularLog::Options o;
  o.initial_q_bits = 8;
  CircularLog db(o);
  // Overwrite the same small key set many times: mostly-dead log.
  for (int round = 0; round < 50; ++round) {
    for (uint64_t k = 1; k <= 500; ++k) db.Put(k, round);
  }
  EXPECT_GT(db.gc_runs(), 0u);
  EXPECT_LT(db.log_records(), 25000u / 2);  // Far fewer than 25k appends.
  for (uint64_t k = 1; k <= 500; ++k) {
    ASSERT_EQ(db.Get(k), std::optional<uint64_t>(49));
  }
}

TEST(CircularLog, WastedReadsFallAsFingerprintsGrow) {
  // §3.1: the maplet's false positives are wasted page reads, so every two
  // more fingerprint bits must cut a negative lookup's reads, which stay
  // under the 2^-f false-positive bound.
  const auto keys = bbf::GenerateDistinctKeys(20000, 71);
  const auto ghosts = bbf::GenerateNegativeKeys(keys, 100000, 72);
  uint64_t previous = ~uint64_t{0};
  for (const int f : {6, 8, 10, 12}) {
    CircularLog::Options o;
    o.fingerprint_bits = f;
    o.initial_q_bits = 15;  // Pre-sized: no expansion sheds a bit.
    CircularLog db(o);
    for (uint64_t k : keys) db.Put(k, k);
    db.ResetIo();
    for (uint64_t g : ghosts) ASSERT_FALSE(db.Get(g).has_value());
    const uint64_t reads = db.io().data_reads;
    EXPECT_LT(reads, previous) << f << " fingerprint bits";
    EXPECT_LE(reads, ghosts.size() * std::ldexp(1.0, -f))
        << f << " fingerprint bits";
    previous = reads;
  }
}

TEST(CircularLog, LookupNoiseIsCharged) {
  CircularLog::Options o;
  o.fingerprint_bits = 6;  // Deliberately noisy maplet.
  CircularLog db(o);
  const auto keys = bbf::GenerateDistinctKeys(20000, 65);
  for (uint64_t k : keys) db.Put(k, 1);
  db.ResetIo();
  const auto ghosts = bbf::GenerateNegativeKeys(keys, 20000, 66);
  for (uint64_t g : ghosts) db.Get(g);
  // Noise = wasted page reads on absent keys.
  EXPECT_GT(db.io().false_probes, 50u);
}

}  // namespace
}  // namespace bbf::lsm
