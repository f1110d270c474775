// Experiment E26 (DESIGN.md §4, §15): what online migration costs.
//
// Two questions decide whether workload-aware auto-tuning is usable in
// production. (1) Availability: the migration protocol promises serving
// never stops — the only blocking window is the final drain-and-swap,
// bounded at kFinalDrainTarget journal ops. So lookup p99 measured
// *during* a migration sweep must stay within a small multiple (budget:
// 10x) of steady-state p99. (2) Effectiveness: after the tuner moves an
// abused blocked-bloom shard to an adaptive family, the observed FPR on
// the abusive key set must actually fall back under the configured
// budget. This bench measures both and fails loudly if either breaks.
//
// Usage: bench_tuner [--quick] [--json=PATH]
//   --quick      a smaller filter for the FPR-recovery phase. The pause
//                phase runs at one size: its p99 ratio needs the full
//                2M-lookup sample to stay inside the 10x gate.
//   --json=PATH  machine-readable results (BENCH_tuner.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/registry.h"
#include "harness.h"
#include "core/fpr_estimator.h"
#include "core/key.h"
#include "core/sharded_filter.h"
#include "obs/instrumented.h"
#include "tuning/tuner.h"
#include "util/random.h"
#include "workload/generators.h"

using bbf::CreateFilter;
using bbf::GenerateDistinctKeys;
using bbf::HashedKey;
using bbf::ObservedFprEstimator;
using bbf::ShardedFilter;
using bbf::SplitMix64;
using bbf::bench::Cmp;
using bbf::bench::Harness;

namespace {

ShardedFilter::ShardFactory FamilyFactory(std::string name, double fpr) {
  return [name = std::move(name), fpr](uint64_t cap) {
    return CreateFilter(name, cap, fpr);
  };
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Percentile(std::vector<uint64_t>& samples, double q) {
  if (samples.empty()) return 0;
  const size_t idx = std::min(
      samples.size() - 1, static_cast<size_t>(q * (samples.size() - 1)));
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

/// Runs `count` random lookups against `filter`, recording per-lookup
/// nanoseconds. The probe stream mixes residents and misses like E25.
std::vector<uint64_t> TimedLookups(const ShardedFilter& filter,
                                   const std::vector<uint64_t>& pool,
                                   uint64_t count, uint64_t seed) {
  std::vector<uint64_t> ns;
  ns.reserve(count);
  SplitMix64 rng(seed);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t key = pool[rng.NextBelow(pool.size())];
    const uint64_t t0 = NowNs();
    (void)filter.Contains(key);
    ns.push_back(NowNs() - t0);
  }
  return ns;
}

struct PauseResult {
  uint64_t steady_p50_ns = 0;
  uint64_t steady_p99_ns = 0;
  uint64_t swap_p50_ns = 0;
  uint64_t swap_p99_ns = 0;
  uint64_t max_pause_ns = 0;
  uint64_t migrations = 0;
};

// --- Phase 1: lookup latency while every shard migrates under load. ------
PauseResult MeasureMigrationPause(Harness& h) {
  constexpr uint64_t pool_size = uint64_t{1} << 18;
  constexpr uint64_t lookups = 2'000'000;
  constexpr size_t kShards = 8;

  ShardedFilter filter(pool_size, kShards, FamilyFactory("quotient", 0.01), {},
                       ShardedFilter::kDefaultJournalCap);
  const auto pool = GenerateDistinctKeys(pool_size, 42);
  for (size_t i = 0; i < pool.size() / 2; ++i) filter.Insert(pool[i]);

  // Steady state: no migration in flight.
  auto steady = TimedLookups(filter, pool, lookups, 1);

  // Swap window: a reader thread probes continuously while the main
  // thread sweeps a migration across every shard (quotient -> cuckoo ->
  // blocked-bloom). Only lookups issued while a migration is in flight
  // land in the during-swap histogram.
  std::vector<uint64_t> swap_ns;
  std::atomic<bool> migrating{false};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    SplitMix64 rng(2);
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t key = pool[rng.NextBelow(pool.size())];
      const uint64_t t0 = NowNs();
      (void)filter.Contains(key);
      const uint64_t dt = NowNs() - t0;
      if (migrating.load(std::memory_order_acquire)) swap_ns.push_back(dt);
    }
  });

  PauseResult r;
  const char* kCycle[] = {"cuckoo", "blocked-bloom"};
  for (const char* family : kCycle) {
    for (size_t s = 0; s < kShards; ++s) {
      migrating.store(true, std::memory_order_release);
      const auto report = filter.MigrateShard(s, FamilyFactory(family, 0.01));
      migrating.store(false, std::memory_order_release);
      h.Check(report.ok, "migrate shard " + std::to_string(s) + " to " +
                             family + ": " + report.error);
      r.max_pause_ns = std::max(r.max_pause_ns, report.pause_ns);
      ++r.migrations;
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();

  r.steady_p50_ns = Percentile(steady, 0.50);
  r.steady_p99_ns = Percentile(steady, 0.99);
  r.swap_p50_ns = Percentile(swap_ns, 0.50);
  r.swap_p99_ns = Percentile(swap_ns, 0.99);
  return r;
}

struct RecoveryResult {
  double fpr_before = 0.0;
  double fpr_after = 0.0;
  double budget = 0.01;
  std::string from_family;
  std::string to_family;
  uint64_t pause_ns = 0;
};

// --- Phase 2: adversarial-repeat abuse, tuner migration, FPR recovery. ---
RecoveryResult MeasureFprRecovery(Harness& h) {
  const uint64_t num_keys = h.quick() ? 2'000 : 20'000;
  // A deliberately loose blocked-bloom shard (the kind a static sizing
  // guess leaves behind) so abusive false positives are easy to find.
  auto inner = std::make_unique<ShardedFilter>(
      num_keys * 2, 1, FamilyFactory("blocked-bloom", 0.25),
      bbf::SaturationConfig{}, ShardedFilter::kDefaultJournalCap);
  bbf::obs::InstrumentedFilter filter(std::move(inner), 0.25);

  const auto keys = GenerateDistinctKeys(num_keys, 7);
  std::unordered_set<uint64_t> present(keys.begin(), keys.end());
  for (uint64_t k : keys) filter.Insert(k);

  // The abusive hot set: in-domain negative keys this filter answers
  // "maybe" for. An adversary replays them forever; a static filter
  // keeps paying the false positive every time. Large enough (2048) that
  // the post-migration measurement has sub-budget resolution.
  std::vector<uint64_t> hot;
  SplitMix64 rng(99);
  for (uint64_t attempts = 0; hot.size() < 2048 && attempts < 64'000'000;
       ++attempts) {
    const uint64_t k = rng.Next();
    if (present.contains(k)) continue;
    const HashedKey hk(k);
    if (!ObservedFprEstimator::InDomain(hk)) continue;
    if (filter.Contains(k)) hot.push_back(k);
  }
  if (!h.Check(hot.size() >= 512, "find abusive false positives")) return {};

  RecoveryResult r;
  uint64_t fp = 0;
  for (uint64_t k : hot) fp += filter.Contains(k);
  r.fpr_before = static_cast<double>(fp) / static_cast<double>(hot.size());

  // The replayed core: the conservative-vote sketch marks a key hot only
  // when the *same* key repeats (colliding keys cancel), so the
  // adversary's signature move is hammering a small set. 64 rounds buries
  // any votes the wide measurement pass above left behind.
  const std::vector<uint64_t> core(hot.begin(), hot.begin() + 16);
  for (int round = 0; round < 64; ++round) {
    for (uint64_t k : core) (void)filter.Contains(k);
  }

  bbf::tuning::TunerConfig cfg;
  cfg.fpr_budget = 0.01;
  r.budget = cfg.fpr_budget;
  bbf::tuning::Tuner tuner(filter, cfg);
  const auto poll = tuner.Poll();
  if (!h.Check(poll.acted && poll.report.ok &&
                   poll.decision.action ==
                       bbf::tuning::TunerAction::kMigrateAdaptive,
               "tuner migrates to an adaptive family: " +
                   poll.decision.reason)) {
    return {};
  }
  r.from_family = poll.decision.from_family;
  r.to_family = poll.decision.to_family;
  r.pause_ns = poll.report.pause_ns;

  // Replay the same abuse against the successor. The adaptive family is
  // built at the tuner's budget epsilon (vs the abused shard's loose
  // one), so the whole hot set — core and wide — drops to its base rate.
  fp = 0;
  for (uint64_t k : hot) fp += filter.Contains(k);
  r.fpr_after = static_cast<double>(fp) / static_cast<double>(hot.size());

  // Migration must not have dropped real keys.
  uint64_t lost = 0;
  for (uint64_t k : keys) lost += !filter.Contains(k);
  h.Check(lost == 0, "migration keeps every key (lost " +
                         std::to_string(lost) + ")");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("tuner", /*reps=*/1, argc, argv);
  std::printf("E26: online migration cost and FPR recovery\n\n");

  const PauseResult p = MeasureMigrationPause(h);
  const double ratio =
      p.steady_p99_ns > 0
          ? static_cast<double>(p.swap_p99_ns) / p.steady_p99_ns
          : 0.0;
  std::printf("migration pause (%llu migrations across 8 shards):\n",
              static_cast<unsigned long long>(p.migrations));
  std::printf("  %-28s %10llu ns\n", "steady-state lookup p50",
              static_cast<unsigned long long>(p.steady_p50_ns));
  std::printf("  %-28s %10llu ns\n", "steady-state lookup p99",
              static_cast<unsigned long long>(p.steady_p99_ns));
  std::printf("  %-28s %10llu ns\n", "during-swap lookup p50",
              static_cast<unsigned long long>(p.swap_p50_ns));
  std::printf("  %-28s %10llu ns\n", "during-swap lookup p99",
              static_cast<unsigned long long>(p.swap_p99_ns));
  std::printf("  %-28s %10llu ns\n", "max drain-and-swap pause",
              static_cast<unsigned long long>(p.max_pause_ns));
  h.AddRow()
      .Text("phase", "migration_pause")
      .Int("steady_p50_ns", p.steady_p50_ns)
      .Int("steady_p99_ns", p.steady_p99_ns)
      .Int("swap_p50_ns", p.swap_p50_ns)
      .Int("swap_p99_ns", p.swap_p99_ns)
      .Int("max_pause_ns", p.max_pause_ns)
      .Int("migrations", p.migrations)
      .Num("swap_p99_over_steady_p99", ratio);
  h.Gate("swap p99 / steady p99 lookup latency", ratio, Cmp::kAtMost, 10.0);

  const RecoveryResult f = MeasureFprRecovery(h);
  std::printf("FPR recovery (adversarial repeat on a loose shard):\n");
  std::printf("  %-28s %s -> %s\n", "migration", f.from_family.c_str(),
              f.to_family.c_str());
  std::printf("  %-28s %10.4f\n", "hot-set FPR before", f.fpr_before);
  std::printf("  %-28s %10.4f (budget %.4f)\n", "hot-set FPR after",
              f.fpr_after, f.budget);
  std::printf("  %-28s %10llu ns\n", "migration pause",
              static_cast<unsigned long long>(f.pause_ns));
  h.AddRow()
      .Text("phase", "fpr_recovery")
      .Text("from_family", f.from_family)
      .Text("to_family", f.to_family)
      .Num("fpr_budget", f.budget)
      .Num("hot_set_fpr_before", f.fpr_before)
      .Num("hot_set_fpr_after", f.fpr_after)
      .Int("migration_pause_ns", f.pause_ns);
  h.Gate("hot-set FPR after the tuner's migration", f.fpr_after, Cmp::kBelow,
         f.budget);
  return h.Finish();
}
