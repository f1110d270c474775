// Concurrent torture harness for the overload-graceful serving layer
// (DESIGN.md §9). Eight worker threads hammer one ShardedFilter with a
// mixed Insert / Contains / Erase / InsertMany / Save workload while the
// shards chain generations live. The invariants checked are the serving
// contract itself:
//   * a key whose insert was acknowledged is never a false negative;
//   * NumKeys accounting is exact: acks + batch counts - erase successes;
//   * a snapshot taken mid-storm always loads back fully healthy.
// Run under ThreadSanitizer in CI (the `tsan` job); any lock-discipline
// slip in ShardedFilter or a shard family shows up here first. Two
// cases race unlocked scalar lookups (the seqlock read path, DESIGN.md
// §9) against cuckoo kicks and chaining, and a third races lookups on a
// tracked filter against migration swaps; the `sanitize` job runs them
// under ASan, which sees a reader probe a freed generation. A lock-queue
// case checks that the shard lock queues new readers behind a waiting
// writer; the last two check the batch paths' opposite shard sweeps and
// race lookup batches against write batches.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "obs/instrumented.h"
#include "obs/metrics.h"
#include "quotient/quotient_filter.h"
#include "test_seed.h"
#include "util/random.h"
#include "util/shared_mutex.h"

namespace bbf {
namespace {

constexpr int kThreads = 8;  // Fixed, not hardware_concurrency: the
                             // schedule interleaves via preemption even on
                             // one core, and TSan needs the thread count.

// Per-thread key partition: thread t owns keys (t+1)<<48 | counter, so no
// two threads ever insert or erase the same key and erase-own-key is safe
// under fingerprint multiset semantics.
uint64_t PartitionKey(int tid, uint64_t i) {
  return (static_cast<uint64_t>(tid + 1) << 48) | i;
}

// What one worker did, tallied locally and verified after the join (gtest
// assertions are cheap enough here but failures are collected, not
// asserted, inside the hot loop).
struct WorkerLog {
  std::vector<uint64_t> acked;    // Keys whose insert was acknowledged.
  std::vector<uint64_t> erased;   // Own acked keys successfully erased.
  uint64_t batch_accepted = 0;    // Sum of InsertMany return values.
  uint64_t rejected = 0;          // kRejectedFull outcomes.
  uint64_t expanded = 0;          // kExpanded outcomes.
  uint64_t own_key_misses = 0;    // Contains(acked key) returned false.
  uint64_t erase_failures = 0;    // Erase(own acked key) returned false.
};

// The chain-policy storm: per-shard capacity is tiny so the workload
// drives every shard through live generation chaining while queries and
// snapshots proceed concurrently.
TEST(ConcurrentStress, ChainPolicyTortureKeepsEveryAcknowledgedKey) {
  const uint64_t seed = TestSeed(2024);
  BBF_ANNOUNCE_SEED(seed);

  SaturationConfig config;
  config.policy = SaturationPolicy::kChain;
  config.load_threshold = 0.85;
  config.max_generations = 5;
  ShardedFilter f(
      512, 4,
      [](uint64_t cap) -> std::unique_ptr<Filter> {
        return std::make_unique<QuotientFilter>(
            QuotientFilter::ForCapacity(cap, 0.01));
      },
      config);

  std::vector<WorkerLog> logs(kThreads);
  std::atomic<bool> done{false};

  // Saver thread: snapshot mid-storm, then load the bytes into a fresh
  // filter. Save runs under per-shard reader locks, so every snapshot
  // must be a per-shard-consistent, fully healthy cut.
  std::atomic<uint64_t> snapshots_taken{0};
  std::atomic<uint64_t> snapshot_failures{0};
  std::thread saver([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::stringstream ss;
      if (!f.Save(ss)) {
        snapshot_failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      ShardedFilter loaded(
          512, 4, [](uint64_t cap) -> std::unique_ptr<Filter> {
            return std::make_unique<QuotientFilter>(
                QuotientFilter::ForCapacity(cap, 0.01));
          });
      ShardedFilter::LoadReport report;
      if (!loaded.LoadWithReport(ss, &report) || !report.AllHealthy()) {
        snapshot_failures.fetch_add(1, std::memory_order_relaxed);
      }
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&f, &logs, t, seed] {
      WorkerLog& log = logs[t];
      SplitMix64 rng(seed + static_cast<uint64_t>(t) * 7919);
      uint64_t next_key = 0;
      for (int op = 0; op < 2000; ++op) {
        const uint64_t dice = rng.NextBelow(10);
        if (dice < 5) {
          // Single insert of a fresh own key.
          const uint64_t key = PartitionKey(t, next_key++);
          const InsertOutcome outcome = f.InsertWithStatus(key);
          if (Accepted(outcome)) {
            log.acked.push_back(key);
            log.expanded += outcome == InsertOutcome::kExpanded;
          } else {
            ++log.rejected;
          }
        } else if (dice == 5) {
          // Batch insert of 32 fresh own keys; only the count is
          // reported, so accounting uses the count and containment
          // checks only cover fully-accepted batches.
          std::vector<uint64_t> batch;
          batch.reserve(32);
          for (int j = 0; j < 32; ++j) {
            batch.push_back(PartitionKey(t, next_key++));
          }
          const size_t n = f.InsertMany(batch);
          log.batch_accepted += n;
          if (n == batch.size()) {
            log.acked.insert(log.acked.end(), batch.begin(), batch.end());
            log.batch_accepted -= batch.size();  // Counted via acked.
          }
        } else if (dice < 9) {
          // Membership probe on one of our own acknowledged keys: a miss
          // is a false negative, the cardinal sin.
          if (!log.acked.empty()) {
            const uint64_t key = log.acked[rng.NextBelow(log.acked.size())];
            if (!f.Contains(key)) ++log.own_key_misses;
          }
        } else {
          // Random probe (usually negative); exercises the read path
          // against other shards, result is unconstrained.
          f.Contains(rng.Next());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_release);
  saver.join();

  uint64_t total_acked = 0;
  uint64_t total_batch = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(logs[t].own_key_misses, 0u) << "thread " << t;
    total_acked += logs[t].acked.size();
    total_batch += logs[t].batch_accepted;
    // Every acknowledged key is still a member after the storm.
    uint64_t missing = 0;
    for (uint64_t key : logs[t].acked) missing += !f.Contains(key);
    EXPECT_EQ(missing, 0u) << "thread " << t << " lost acked keys";
  }
  // Exact accounting: every physical slot equals one acknowledgement.
  EXPECT_EQ(f.NumKeys(), total_acked + total_batch);

  // The tiny capacity forces the storm past generation one.
  size_t total_generations = 0;
  uint64_t stats_accepted = 0;
  uint64_t stats_expanded = 0;
  for (const auto& s : f.Stats()) {
    total_generations += s.generations;
    stats_accepted += s.accepted;
    stats_expanded += s.expanded;
  }
  EXPECT_GT(total_generations, static_cast<size_t>(f.num_shards()))
      << "workload never chained a generation";
  EXPECT_EQ(stats_accepted + stats_expanded, total_acked + total_batch);

  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_EQ(snapshot_failures.load(), 0u);
}

// Erase torture on an uncrowded filter (kReject policy, ample capacity, so
// shards stay single-generation and erase semantics are exact): each
// thread erases half of its own acked keys; survivors must remain members
// and NumKeys must balance to the key.
TEST(ConcurrentStress, EraseTortureBalancesAccountingExactly) {
  const uint64_t seed = TestSeed(2025);
  BBF_ANNOUNCE_SEED(seed);

  SaturationConfig config;
  config.policy = SaturationPolicy::kReject;
  config.load_threshold = 0.95;
  ShardedFilter f(
      64000, 8,
      [](uint64_t cap) -> std::unique_ptr<Filter> {
        return std::make_unique<CuckooFilter>(cap, 14);
      },
      config);

  std::vector<WorkerLog> logs(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&f, &logs, t, seed] {
      WorkerLog& log = logs[t];
      SplitMix64 rng(seed + static_cast<uint64_t>(t) * 104729);
      uint64_t next_key = 0;
      for (int op = 0; op < 2000; ++op) {
        const uint64_t dice = rng.NextBelow(10);
        if (dice < 5) {
          const uint64_t key = PartitionKey(t, next_key++);
          if (f.Insert(key)) {
            log.acked.push_back(key);
          } else {
            ++log.rejected;
          }
        } else if (dice < 7) {
          // Erase the oldest not-yet-erased own key. Erasing a key this
          // thread inserted exactly once must succeed.
          if (log.erased.size() < log.acked.size()) {
            const uint64_t key = log.acked[log.erased.size()];
            if (f.Erase(key)) {
              log.erased.push_back(key);
            } else {
              ++log.erase_failures;
            }
          }
        } else if (dice < 9) {
          // Probe a surviving own key.
          if (log.erased.size() < log.acked.size()) {
            const size_t live =
                log.erased.size() +
                rng.NextBelow(log.acked.size() - log.erased.size());
            if (!f.Contains(log.acked[live])) ++log.own_key_misses;
          }
        } else {
          f.Contains(rng.Next());
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  uint64_t total_acked = 0;
  uint64_t total_erased = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(logs[t].own_key_misses, 0u) << "thread " << t;
    EXPECT_EQ(logs[t].erase_failures, 0u) << "thread " << t;
    total_acked += logs[t].acked.size();
    total_erased += logs[t].erased.size();
    uint64_t missing = 0;
    for (size_t i = logs[t].erased.size(); i < logs[t].acked.size(); ++i) {
      missing += !f.Contains(logs[t].acked[i]);
    }
    EXPECT_EQ(missing, 0u) << "thread " << t << " lost surviving keys";
  }
  EXPECT_EQ(f.NumKeys(), total_acked - total_erased);
}

// Native-expansion torture: taffy restructures itself inside Insert, so
// kExpandInPlace must never reject, and the doubling machinery has to
// stay correct while every other thread queries mid-expansion.
TEST(ConcurrentStress, ExpandInPlaceTaffyNeverRejectsUnderStorm) {
  const uint64_t seed = TestSeed(2026);
  BBF_ANNOUNCE_SEED(seed);

  SaturationConfig config;
  config.policy = SaturationPolicy::kExpandInPlace;
  config.load_threshold = 0.85;
  ShardedFilter f(
      256, 4,
      [](uint64_t cap) -> std::unique_ptr<Filter> {
        return CreateFilter("taffy", cap, 0.01);
      },
      config);

  std::vector<WorkerLog> logs(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&f, &logs, t, seed] {
      WorkerLog& log = logs[t];
      SplitMix64 rng(seed + static_cast<uint64_t>(t) * 31337);
      for (uint64_t i = 0; i < 2000; ++i) {
        const uint64_t key = PartitionKey(t, i);
        const InsertOutcome outcome = f.InsertWithStatus(key);
        if (Accepted(outcome)) {
          log.acked.push_back(key);
          log.expanded += outcome == InsertOutcome::kExpanded;
        } else {
          ++log.rejected;
        }
        if (rng.NextBelow(4) == 0 && !log.acked.empty()) {
          const uint64_t probe = log.acked[rng.NextBelow(log.acked.size())];
          if (!f.Contains(probe)) ++log.own_key_misses;
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  uint64_t total_acked = 0;
  uint64_t total_expanded = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(logs[t].rejected, 0u)
        << "thread " << t << ": kExpandInPlace on taffy must never reject";
    EXPECT_EQ(logs[t].own_key_misses, 0u) << "thread " << t;
    total_acked += logs[t].acked.size();
    total_expanded += logs[t].expanded;
    uint64_t missing = 0;
    for (uint64_t key : logs[t].acked) missing += !f.Contains(key);
    EXPECT_EQ(missing, 0u) << "thread " << t << " lost acked keys";
  }
  EXPECT_EQ(total_acked, static_cast<uint64_t>(kThreads) * 2000);
  EXPECT_EQ(f.NumKeys(), total_acked);
  // 16k keys into 256-key sizing: the threshold tripped, so expansion
  // statuses must have been reported.
  EXPECT_GT(total_expanded, 0u);
}

// Instrumented torture: the same 8-thread storm through an
// obs::InstrumentedFilter wrapping a sharded cuckoo. The counters are
// relaxed atomics — this test is the proof (run under TSan in CI) that
// they are race-free AND lose nothing: after the join, every metrics
// total must equal the sum of the per-thread tallies of what each call
// actually returned, and the sampled ground-truth estimator must have
// seen zero false negatives.
TEST(ConcurrentStress, InstrumentedCountersMatchPerThreadTallies) {
  const uint64_t seed = TestSeed(2027);
  BBF_ANNOUNCE_SEED(seed);

  SaturationConfig config;
  config.policy = SaturationPolicy::kReject;
  config.load_threshold = 0.9;
  obs::InstrumentedFilter f(
      std::make_unique<ShardedFilter>(
          8000, 8,
          [](uint64_t cap) -> std::unique_ptr<Filter> {
            return std::make_unique<CuckooFilter>(cap, 14);
          },
          config),
      /*configured_epsilon=*/0.01);

  struct Tally {
    uint64_t scalar_inserts = 0;
    uint64_t insert_failures = 0;
    uint64_t batch_keys = 0;
    uint64_t batch_shortfall = 0;
    uint64_t lookups = 0;   // Scalar calls + batch query counts.
    uint64_t hits = 0;      // Positive results actually returned to us.
    uint64_t erases = 0;
    uint64_t erase_failures = 0;
    uint64_t own_key_misses = 0;
    std::vector<uint64_t> acked;
    size_t erased = 0;
  };
  std::vector<Tally> tallies(kThreads);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&f, &tallies, t, seed] {
      Tally& log = tallies[t];
      SplitMix64 rng(seed + static_cast<uint64_t>(t) * 6151);
      uint64_t next_key = 0;
      std::vector<uint64_t> batch;
      std::vector<uint8_t> out;
      for (int op = 0; op < 2000; ++op) {
        const uint64_t dice = rng.NextBelow(12);
        if (dice < 5) {
          const uint64_t key = PartitionKey(t, next_key++);
          ++log.scalar_inserts;
          if (f.Insert(key)) {
            log.acked.push_back(key);
          } else {
            ++log.insert_failures;
          }
        } else if (dice == 5) {
          batch.clear();
          for (int j = 0; j < 32; ++j) {
            batch.push_back(PartitionKey(t, next_key++));
          }
          const size_t n = f.InsertMany(batch);
          log.batch_keys += batch.size();
          log.batch_shortfall += batch.size() - n;
        } else if (dice == 6) {
          // Batched probe over own acked keys plus random negatives.
          batch.clear();
          for (int j = 0; j < 16; ++j) {
            if (!log.acked.empty() && (j & 1) == 0) {
              batch.push_back(log.acked[rng.NextBelow(log.acked.size())]);
            } else {
              batch.push_back(rng.Next());
            }
          }
          out.assign(batch.size(), 0);
          f.ContainsMany(batch, out.data());
          log.lookups += batch.size();
          for (uint8_t o : out) log.hits += o;
        } else if (dice < 9) {
          if (log.erased < log.acked.size()) {
            ++log.erases;
            if (f.Erase(log.acked[log.erased])) {
              ++log.erased;
            } else {
              ++log.erase_failures;
            }
          }
        } else if (dice < 11) {
          if (log.erased < log.acked.size()) {
            const size_t live =
                log.erased +
                rng.NextBelow(log.acked.size() - log.erased);
            ++log.lookups;
            const bool hit = f.Contains(log.acked[live]);
            log.hits += hit;
            log.own_key_misses += !hit;
          }
        } else {
          ++log.lookups;
          log.hits += f.Contains(rng.Next());
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  Tally sum;
  for (const Tally& log : tallies) {
    EXPECT_EQ(log.own_key_misses, 0u);
    EXPECT_EQ(log.erase_failures, 0u);
    sum.scalar_inserts += log.scalar_inserts;
    sum.insert_failures += log.insert_failures;
    sum.batch_keys += log.batch_keys;
    sum.batch_shortfall += log.batch_shortfall;
    sum.lookups += log.lookups;
    sum.hits += log.hits;
    sum.erases += log.erases;
    sum.erase_failures += log.erase_failures;
  }

  const obs::MetricsSnapshot snap = f.Snapshot();
  const auto counter = [&snap](std::string_view name) -> uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return ~uint64_t{0};
  };
  EXPECT_EQ(counter("inserts_total"), sum.scalar_inserts + sum.batch_keys);
  EXPECT_EQ(counter("insert_failures_total"),
            sum.insert_failures + sum.batch_shortfall);
  EXPECT_EQ(counter("lookups_total"), sum.lookups);
  EXPECT_EQ(counter("lookup_hits_total"), sum.hits);
  EXPECT_EQ(counter("erases_total"), sum.erases);
  EXPECT_EQ(counter("erase_failures_total"), 0u);
  // The ground-truth estimator runs over a 1-in-64 key sample; with
  // partitioned keys and multiset erase semantics a sampled key the
  // filter acknowledged can never go missing.
  EXPECT_EQ(counter("sampled_false_negatives_total"), 0u);
}

// The seqlock read path (DESIGN.md §9) while kicks move keys. One cuckoo
// shard holds 410 stable keys in 512 cells, and a writer churns about 40
// more through it (load 0.82-0.88), so its inserts kick stable keys
// between their two buckets. Mid-chain a kicked key sits in neither
// bucket, and an unlocked probe that lands then answers "absent": only the
// second counter read, which sees the writer's odd store, keeps that
// answer from the caller. Two readers loop over the stable keys for the
// whole storm and must never miss one.
TEST(ConcurrentStress, UnlockedLookupsSurviveKicksOfStableKeys) {
  const uint64_t seed = TestSeed(2028);
  BBF_ANNOUNCE_SEED(seed);

  SaturationConfig config;
  config.policy = SaturationPolicy::kReject;
  config.load_threshold = 1.0;
  // 300 expected keys size the one shard for 391, which the cuckoo table
  // rounds up to 128 buckets of 4 cells.
  ShardedFilter f(
      300, 1,
      [](uint64_t cap) -> std::unique_ptr<Filter> {
        return std::make_unique<CuckooFilter>(cap, 12);
      },
      config);
  constexpr double kCells = 512;
  constexpr size_t kStable = 410;
  constexpr size_t kChurn = 40;
  SplitMix64 rng(seed);
  std::vector<uint64_t> stable(kStable);
  for (uint64_t& key : stable) {
    key = rng.Next();
    ASSERT_TRUE(f.Insert(key));
  }
  ASSERT_DOUBLE_EQ(f.LoadFactor(), kStable / kCells);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t local_misses = 0;
      uint64_t local_lookups = 0;
      while (!done.load(std::memory_order_acquire)) {
        for (uint64_t key : stable) local_misses += !f.Contains(key);
        local_lookups += stable.size();
      }
      misses.fetch_add(local_misses, std::memory_order_relaxed);
      lookups.fetch_add(local_lookups, std::memory_order_relaxed);
    });
  }

  std::vector<uint64_t> churn;
  uint64_t inserts = 0;
  uint64_t erase_failures = 0;
  double min_load = 1.0;
  double max_load = 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) {
      if (churn.size() >= kChurn) {
        const size_t j = rng.NextBelow(churn.size());
        erase_failures += !f.Erase(churn[j]);
        churn[j] = churn.back();
        churn.pop_back();
      }
      const uint64_t key = rng.Next();
      ++inserts;
      if (f.Insert(key)) churn.push_back(key);
    }
    const double load = f.LoadFactor();
    min_load = std::min(min_load, load);
    max_load = std::max(max_load, load);
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(misses.load(), 0u) << "over " << lookups.load() << " lookups and "
                               << inserts << " churn inserts";
  EXPECT_EQ(erase_failures, 0u);
  EXPECT_GT(lookups.load(), 0u);
  EXPECT_GE(min_load, 0.82);
  EXPECT_LE(max_load, 0.88);
  uint64_t missing = 0;
  for (uint64_t key : stable) missing += !f.Contains(key);
  EXPECT_EQ(missing, 0u);
}

// Publication flips while readers run: tiny kChain cuckoo shards publish
// their one generation, and the first chained generation unpublishes the
// shard, so unlocked probes race the switch to the locked path. Readers
// probe keys as soon as the writer acks them; none may read absent.
TEST(ConcurrentStress, ChainingUnpublishesShardsWithoutMissingAckedKeys) {
  const uint64_t seed = TestSeed(2029);
  BBF_ANNOUNCE_SEED(seed);
  constexpr int kRounds = 10;
  constexpr size_t kKeys = 3000;

  SaturationConfig config;
  config.policy = SaturationPolicy::kChain;
  config.load_threshold = 0.85;
  config.max_generations = 6;
  for (int round = 0; round < kRounds; ++round) {
    ShardedFilter f(
        64, 4,
        [](uint64_t cap) -> std::unique_ptr<Filter> {
          return std::make_unique<CuckooFilter>(cap, 12);
        },
        config);
    // The writer fills acked[n] before it publishes n + 1.
    std::vector<uint64_t> acked(kKeys);
    std::atomic<size_t> num_acked{0};
    std::atomic<bool> done{false};
    std::atomic<uint64_t> misses{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        SplitMix64 rrng(seed + static_cast<uint64_t>(round * 2 + r));
        uint64_t local_misses = 0;
        while (!done.load(std::memory_order_acquire)) {
          const size_t n = num_acked.load(std::memory_order_acquire);
          if (n == 0) continue;
          local_misses += !f.Contains(acked[rrng.NextBelow(n)]);
        }
        misses.fetch_add(local_misses, std::memory_order_relaxed);
      });
    }
    SplitMix64 rng(seed + 1000 + static_cast<uint64_t>(round));
    size_t n = 0;
    for (size_t i = 0; i < kKeys; ++i) {
      const uint64_t key = rng.Next();
      if (Accepted(f.InsertWithStatus(key))) {
        acked[n] = key;
        num_acked.store(++n, std::memory_order_release);
      }
    }
    done.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();

    EXPECT_EQ(misses.load(), 0u) << "round " << round;
    uint64_t missing = 0;
    for (size_t i = 0; i < n; ++i) missing += !f.Contains(acked[i]);
    EXPECT_EQ(missing, 0u) << "round " << round;
    size_t chained = 0;
    for (const auto& s : f.Stats()) chained += s.generations > 1;
    EXPECT_EQ(chained, static_cast<size_t>(f.num_shards()))
        << "round " << round << ": a shard never chained";
  }
}

// A migration swap frees the generations it replaces, which is safe only
// because a tracked shard never publishes (DESIGN.md §9): every lookup on
// it takes the shard lock, so no reader can still be probing a generation
// the swap frees. Eight readers probe a tracked filter of cuckoo shards, a
// family whose untracked shards publish, while the main thread inserts
// into it and migrates every shard. A tracked shard that published would
// hand readers a generation the swap then frees, which ASan reports as a
// heap-use-after-free, so the sanitize job runs this test under ASan. The
// readers yield after each probe so the inserts and migrations also make
// progress on fewer cores. The name dates from when a shard's first
// migration parked the generations it swapped out.
TEST(ConcurrentStress, MigrationParksGenerationsThatStaleReadersMayProbe) {
  const uint64_t seed = TestSeed(2030);
  BBF_ANNOUNCE_SEED(seed);
  constexpr int kRounds = 10;
  constexpr size_t kKeys = 512;
  const ShardedFilter::ShardFactory cuckoo =
      [](uint64_t cap) -> std::unique_ptr<Filter> {
    return std::make_unique<CuckooFilter>(cap, 12);
  };

  for (int round = 0; round < kRounds; ++round) {
    ShardedFilter f(kKeys, 4, cuckoo, {}, ShardedFilter::kDefaultJournalCap);
    // The writer fills acked[n] before it publishes n + 1.
    std::vector<uint64_t> acked(kKeys);
    std::atomic<size_t> num_acked{0};
    std::atomic<bool> done{false};
    std::atomic<int> ready{0};
    std::atomic<uint64_t> misses{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kThreads; ++r) {
      readers.emplace_back([&, r] {
        SplitMix64 rrng(seed + static_cast<uint64_t>(round * kThreads + r));
        uint64_t local_misses = 0;
        for (bool first = true; !done.load(std::memory_order_acquire);
             first = false) {
          const size_t n = num_acked.load(std::memory_order_acquire);
          // Before the first ack there is nothing to miss; the probe still
          // runs.
          const bool hit = f.Contains(n == 0 ? rrng.Next()
                                             : acked[rrng.NextBelow(n)]);
          local_misses += n > 0 && !hit;
          if (first) ready.fetch_add(1, std::memory_order_release);
          std::this_thread::yield();
        }
        misses.fetch_add(local_misses, std::memory_order_relaxed);
      });
    }
    while (ready.load(std::memory_order_acquire) < kThreads) {
      std::this_thread::yield();
    }
    SplitMix64 rng(seed + 1000 + static_cast<uint64_t>(round));
    size_t n = 0;
    for (size_t i = 0; i < kKeys; ++i) {
      const uint64_t key = rng.Next();
      if (f.Insert(key)) {
        acked[n] = key;
        num_acked.store(++n, std::memory_order_release);
      }
    }
    for (int s = 0; s < f.num_shards(); ++s) {
      const ShardedFilter::MigrationReport report =
          f.MigrateShard(static_cast<size_t>(s), cuckoo);
      EXPECT_TRUE(report.ok) << "round " << round << " shard " << s << ": "
                             << report.error;
    }
    done.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();

    EXPECT_EQ(n, kKeys) << "round " << round;
    EXPECT_EQ(misses.load(), 0u) << "round " << round;
    uint64_t missing = 0;
    for (size_t i = 0; i < n; ++i) missing += !f.Contains(acked[i]);
    EXPECT_EQ(missing, 0u) << "round " << round;
    EXPECT_EQ(f.TotalMigrations(), static_cast<uint64_t>(f.num_shards()));
  }
}

// The shard lock's fairness, tested on its type directly. With one
// reader inside and a writer waiting, a new reader must wait: on glibc a
// std::shared_mutex lets it in (reader preference), so readers that keep
// overlapping could hold off every insert, erase and migration swap.
TEST(ConcurrentStress, ShardLockQueuesNewReadersBehindAWaitingWriter) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "writer preference is configured on glibc only";
#endif
  WriterPreferringMutex mu;
  std::atomic<bool> release_first{false};
  std::atomic<bool> first_in{false};
  std::atomic<int> order{0};
  std::atomic<int> writer_order{0};
  std::atomic<int> late_reader_order{0};
  std::thread first([&] {
    mu.lock_shared();
    first_in.store(true, std::memory_order_release);
    while (!release_first.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    mu.unlock_shared();
  });
  while (!first_in.load(std::memory_order_acquire)) std::this_thread::yield();
  std::thread writer([&] {
    mu.lock();
    writer_order.store(++order);
    // Hold long enough that a reader let in early would be seen first.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mu.unlock();
  });

  // Once the writer waits, try_lock_shared must fail. The deadline is
  // generous: a reader-preferring lock never starts failing.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool refused = false;
  while (!refused && std::chrono::steady_clock::now() < deadline) {
    if (mu.try_lock_shared()) {
      mu.unlock_shared();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    } else {
      refused = true;
    }
  }
  EXPECT_TRUE(refused) << "a new reader still got in past a waiting writer";

  std::thread late_reader([&] {
    mu.lock_shared();
    late_reader_order.store(++order);
    mu.unlock_shared();
  });
  // Give the late reader time to queue before the first reader leaves.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release_first.store(true, std::memory_order_release);
  first.join();
  writer.join();
  late_reader.join();
  EXPECT_EQ(writer_order.load(), 1) << "the writer came after a reader that "
                                       "arrived after it";
  EXPECT_EQ(late_reader_order.load(), 2);
}

// Holds a reader inside one shard: a membership family (an exact multiset)
// whose ContainsMany, while `block` is set, signals `inside` and waits for
// `release` before it answers. ShardedFilter::ContainsMany calls it under
// the shard's shared lock. `writes` counts the keys inserted and erased.
struct ReaderGate {
  std::atomic<bool> block{false};
  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
};

class GateFamily : public Filter {
 public:
  explicit GateFamily(ReaderGate* gate) : gate_(gate) {}

  using Filter::Contains;
  using Filter::ContainsMany;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override {
    keys_.insert(key.value());
    writes.fetch_add(1, std::memory_order_release);
    return true;
  }
  bool Contains(HashedKey key) const override {
    return keys_.count(key.value()) > 0;
  }
  void ContainsMany(std::span<const HashedKey> keys,
                    uint8_t* out) const override {
    if (gate_->block.load(std::memory_order_acquire)) {
      gate_->inside.store(true, std::memory_order_release);
      while (!gate_->release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    Filter::ContainsMany(keys, out);
  }
  bool Erase(HashedKey key) override {
    const auto it = keys_.find(key.value());
    if (it == keys_.end()) return false;
    keys_.erase(it);
    writes.fetch_add(1, std::memory_order_release);
    return true;
  }
  size_t SpaceBits() const override { return keys_.size() * 64; }
  uint64_t NumKeys() const override { return keys_.size(); }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "gate"; }

  std::atomic<uint64_t> writes{0};

 private:
  ReaderGate* gate_;
  std::multiset<uint64_t> keys_;
};

// The sweep order (DESIGN.md §9): lookup batches take the shard locks
// upward and write batches downward, so a lookup batch inside shard 0
// holds up a write batch only once that batch has written every other
// shard. A reader parks in shard 0's ContainsMany, holding its shared
// lock; a write batch with keys in every shard then runs on a second
// thread and must finish shards 1-7 before it waits at shard 0. A write
// batch that swept upward would wait at shard 0 first, and the poll below
// would time out before the reader is released.
TEST(ConcurrentStress, WriteBatchesSweepShardsOppositeToLookupBatches) {
  constexpr int kShards = 8;
  constexpr size_t kPerShard = 4;
  // Reader keys all route to shard 0, writer keys to every shard; both
  // batches are at least 2 keys per shard, so both are grouped.
  std::vector<HashedKey> reader_keys;
  std::vector<HashedKey> write_keys;
  std::vector<size_t> per_shard(kShards, 0);
  for (uint64_t k = 1; reader_keys.size() < 2 * kShards ||
                       write_keys.size() < kShards * kPerShard;
       ++k) {
    const HashedKey key(k);
    const size_t s = key.value() % kShards;
    if (s == 0 && reader_keys.size() < 2 * kShards) {
      reader_keys.push_back(key);
    } else if (per_shard[s] < kPerShard) {
      ++per_shard[s];
      write_keys.push_back(key);
    }
  }
  enum class Path { kInsertMany, kInsertManyWithStatus, kEraseMany };
  for (const Path path :
       {Path::kInsertMany, Path::kInsertManyWithStatus, Path::kEraseMany}) {
    SCOPED_TRACE(path == Path::kInsertMany ? "InsertMany"
                 : path == Path::kInsertManyWithStatus
                     ? "InsertManyWithStatus"
                     : "EraseMany");
    ReaderGate gate;
    std::vector<GateFamily*> shards;  // Built in shard order.
    ShardedFilter f(1 << 12, kShards,
                    [&](uint64_t) -> std::unique_ptr<Filter> {
                      auto family = std::make_unique<GateFamily>(&gate);
                      shards.push_back(family.get());
                      return family;
                    });
    ASSERT_EQ(shards.size(), static_cast<size_t>(kShards));
    if (path == Path::kEraseMany) {
      ASSERT_EQ(f.InsertMany(write_keys), write_keys.size());
    }
    std::vector<uint64_t> before(kShards);
    for (int s = 0; s < kShards; ++s) before[s] = shards[s]->writes.load();

    gate.block.store(true, std::memory_order_release);
    std::vector<uint8_t> answers(reader_keys.size());
    std::thread reader([&] { f.ContainsMany(reader_keys, answers.data()); });
    while (!gate.inside.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::vector<uint8_t> out(write_keys.size());
    std::vector<InsertOutcome> outcomes(write_keys.size());
    std::thread writer([&] {
      switch (path) {
        case Path::kInsertMany:
          f.InsertMany(write_keys);
          break;
        case Path::kInsertManyWithStatus:
          f.InsertManyWithStatus(write_keys, outcomes.data());
          break;
        case Path::kEraseMany:
          f.EraseMany(write_keys, out.data());
          break;
      }
    });
    const auto others_written = [&] {
      for (int s = 1; s < kShards; ++s) {
        if (shards[s]->writes.load(std::memory_order_acquire) !=
            before[s] + kPerShard) {
          return false;
        }
      }
      return true;
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool finished = others_written();
    while (!finished && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      finished = others_written();
    }
    const uint64_t shard0_while_held = shards[0]->writes.load();
    gate.release.store(true, std::memory_order_release);
    reader.join();
    writer.join();

    EXPECT_TRUE(finished) << "the write batch waited at shard 0 before "
                             "writing every other shard";
    EXPECT_EQ(shard0_while_held, before[0])
        << "the write batch entered the shard a reader held";
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(shards[s]->writes.load(), before[s] + kPerShard)
          << "shard " << s;
    }
    if (path == Path::kEraseMany) {
      for (uint8_t done : out) EXPECT_EQ(done, 1);
    }
  }
}

// Lookup batches against write batches, the traffic of a served filter:
// two readers loop ContainsMany over stable keys while a writer inserts
// churn keys with InsertManyWithStatus and erases each acked batch with
// EraseMany. The sweeps pass each other at every shard; no stable key may
// read absent, and every acked churn key must erase.
TEST(ConcurrentStress, LookupBatchesMissNoKeyWhileWriteBatchesChurn) {
  const uint64_t seed = TestSeed(2031);
  BBF_ANNOUNCE_SEED(seed);
  constexpr size_t kStable = 16384;
  constexpr size_t kBatch = 1024;
  ShardedFilter f(4 * kStable, 16,
                  [](uint64_t cap) -> std::unique_ptr<Filter> {
                    return std::make_unique<QuotientFilter>(
                        QuotientFilter::ForCapacity(cap, 0.01));
                  });
  SplitMix64 rng(seed);
  std::vector<HashedKey> stable(kStable);
  for (HashedKey& key : stable) key = HashedKey(rng.Next());
  ASSERT_EQ(f.InsertMany(stable), kStable);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> lookups{0};
  const std::span<const HashedKey> all(stable);
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::vector<uint8_t> out(kBatch);
      uint64_t local_misses = 0;
      uint64_t local_lookups = 0;
      while (!done.load(std::memory_order_acquire)) {
        for (size_t off = 0; off < kStable; off += kBatch) {
          f.ContainsMany(all.subspan(off, kBatch), out.data());
          for (uint8_t hit : out) local_misses += hit == 0;
          local_lookups += kBatch;
        }
      }
      misses.fetch_add(local_misses, std::memory_order_relaxed);
      lookups.fetch_add(local_lookups, std::memory_order_relaxed);
    });
  }

  uint64_t rounds = 0;
  uint64_t acked = 0;
  uint64_t erase_misses = 0;
  std::vector<HashedKey> churn(kBatch);
  std::vector<HashedKey> live;
  std::vector<InsertOutcome> outcomes(kBatch);
  std::vector<uint8_t> erased(kBatch);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < deadline) {
    for (HashedKey& key : churn) key = HashedKey(rng.Next());
    f.InsertManyWithStatus(churn, outcomes.data());
    live.clear();
    for (size_t i = 0; i < kBatch; ++i) {
      if (Accepted(outcomes[i])) live.push_back(churn[i]);
    }
    acked += live.size();
    f.EraseMany(live, erased.data());
    for (size_t i = 0; i < live.size(); ++i) erase_misses += erased[i] == 0;
    ++rounds;
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(misses.load(), 0u) << "over " << lookups.load() << " lookups and "
                               << rounds << " write rounds";
  EXPECT_GT(lookups.load(), 0u);
  EXPECT_EQ(acked, rounds * kBatch) << "a churn insert was refused";
  EXPECT_EQ(erase_misses, 0u);
  EXPECT_EQ(f.NumKeys(), kStable);
}

}  // namespace
}  // namespace bbf
