// Migration torture (DESIGN.md §15 acceptance): an 8-thread mixed
// read/write storm runs against a ShardedFilter while shards migrate
// between families under it and two extra threads poll a live Tuner.
// The contract under test: an acked key is NEVER lost — not during the
// snapshot phase, not during catch-up, not across the drain-and-swap —
// and erased keys stay erased through a migration. Run under TSan in CI.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/sharded_filter.h"
#include "obs/instrumented.h"
#include "tuning/tuner.h"
#include "util/random.h"

#include "test_seed.h"

namespace bbf {
namespace {

ShardedFilter::ShardFactory FamilyFactory(std::string name, double fpr) {
  return [name = std::move(name), fpr](uint64_t cap) {
    return CreateFilter(name, cap, fpr);
  };
}

constexpr int kWriters = 4;
constexpr int kReaders = 4;
constexpr int kNumShards = 8;
constexpr uint64_t kKeysPerWriter = 20'000;

TEST(TunerTorture, OnlineMigrationDropsNoAckedKeysUnderMixedStorm) {
  const uint64_t seed = TestSeed(9200);
  BBF_ANNOUNCE_SEED(seed);

  auto inner = std::make_unique<ShardedFilter>(
      uint64_t{1} << 17, kNumShards, FamilyFactory("quotient", 0.01),
      SaturationConfig{}, ShardedFilter::kDefaultJournalCap);
  ShardedFilter* sharded = inner.get();
  obs::InstrumentedFilter filter(std::move(inner), 0.01);

  tuning::TunerConfig tuner_cfg;
  tuner_cfg.fpr_budget = 0.01;
  tuning::Tuner tuner(filter, tuner_cfg);
  ASSERT_TRUE(tuner.valid());

  std::atomic<bool> stop{false};
  std::atomic<int> writers_done{0};
  // Acked keys a writer observed missing mid-storm. Must stay 0: a
  // migration may pause a lookup, never lose a key.
  std::atomic<uint64_t> lost_mid_storm{0};
  std::atomic<uint64_t> erased_resurrected{0};
  // Each writer keeps its keys private (still-acked flag per key), so the
  // end-of-run audit needs no cross-thread synchronization beyond join.
  struct WriterLog {
    std::vector<uint64_t> keys;       // Acked inserts, in order.
    std::vector<uint8_t> live;        // 0 = later erased (ack'd erase).
  };
  std::vector<WriterLog> logs(kWriters);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      WriterLog& log = logs[w];
      log.keys.reserve(kKeysPerWriter);
      log.live.reserve(kKeysPerWriter);
      // Disjoint key ranges per writer: high byte tags the owner.
      SplitMix64 rng(seed + static_cast<uint64_t>(w) * 7919);
      uint64_t produced = 0;
      while (produced < kKeysPerWriter && !stop.load(std::memory_order_relaxed)) {
        const uint64_t key =
            (static_cast<uint64_t>(w + 1) << 56) | (rng.Next() >> 8);
        if (filter.Insert(key)) {
          log.keys.push_back(key);
          log.live.push_back(1);
          ++produced;
        }
        // Re-verify an earlier acked key while migrations churn below us.
        if (!log.keys.empty() && (produced & 7) == 0) {
          const size_t idx = rng.NextBelow(log.keys.size());
          if (log.live[idx] && !filter.Contains(log.keys[idx])) {
            lost_mid_storm.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Occasionally erase one of our own live keys (journaled erase
        // ops must replay correctly into successors).
        if (!log.keys.empty() && rng.NextBelow(16) == 0) {
          const size_t idx = rng.NextBelow(log.keys.size());
          if (log.live[idx] && filter.Erase(log.keys[idx])) {
            log.live[idx] = 0;
          }
        }
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      SplitMix64 rng(seed + 104729 + static_cast<uint64_t>(r));
      std::vector<uint64_t> batch(256);
      std::vector<uint8_t> out(256);
      while (!stop.load(std::memory_order_relaxed)) {
        // Random probes exercise the scalar path; batches the grouped
        // ContainsMany path — both race against drain-and-swap.
        for (int i = 0; i < 512; ++i) filter.Contains(rng.Next());
        for (auto& k : batch) k = rng.Next();
        filter.ContainsMany(batch, out.data());
      }
    });
  }
  // Two concurrent pollers: Poll() and the wire-control closure must be
  // safe against each other and against the migration sweep below.
  std::vector<std::thread> pollers;
  for (int p = 0; p < 2; ++p) {
    pollers.emplace_back([&] {
      auto control = tuner.WireControl();
      while (!stop.load(std::memory_order_relaxed)) {
        tuner.Poll();
        control(0);  // StatusText under churn.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }

  // The migration storm: sweep every shard through a family cycle while
  // the writers and readers above never stop.
  const char* kCycle[] = {"cuckoo", "blocked-bloom", "quotient",
                          "counting-quotient"};
  // Migrations must overlap the whole write phase, so sweep until every
  // writer retired (with a generous cap for sanitizer builds).
  uint64_t migrations_ok = 0;
  uint64_t migrations_failed = 0;
  for (int cycle = 0;
       cycle < 4 || (writers_done.load(std::memory_order_acquire) < kWriters &&
                     cycle < 512);
       ++cycle) {
    for (int s = 0; s < kNumShards; ++s) {
      const auto report = sharded->MigrateShard(
          static_cast<size_t>(s), FamilyFactory(kCycle[cycle % 4], 0.01));
      if (report.ok) {
        ++migrations_ok;
      } else {
        // Permitted failures under load: backlog/journal pressure or a
        // successor refusing a replay op. All abort-safe by contract.
        ++migrations_failed;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (auto& t : pollers) t.join();

  // The storm must have actually migrated shards under traffic.
  EXPECT_GE(migrations_ok, static_cast<uint64_t>(kNumShards))
      << "ok=" << migrations_ok << " failed=" << migrations_failed;
  EXPECT_EQ(lost_mid_storm.load(), 0u);
  EXPECT_EQ(erased_resurrected.load(), 0u);

  // Quiesced audit: every key acked and not erased is still served.
  uint64_t audited = 0;
  uint64_t lost = 0;
  for (const WriterLog& log : logs) {
    for (size_t i = 0; i < log.keys.size(); ++i) {
      if (!log.live[i]) continue;
      ++audited;
      if (!filter.Contains(log.keys[i])) ++lost;
    }
  }
  EXPECT_GT(audited, uint64_t{10'000});
  EXPECT_EQ(lost, 0u) << "of " << audited << " acked keys after "
                      << migrations_ok << " migrations";
}

}  // namespace
}  // namespace bbf
