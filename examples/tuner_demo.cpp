// Auto-tuning close-up (DESIGN.md §15): an adversary replays the same
// false-positive keys against a loosely-sized blocked-bloom shard, the
// observability layer's repeat sketch catches the abuse, and the Tuner
// migrates the shard online to an adaptive family — after which the same
// replay goes quiet. Everything below is the production wiring: an
// InstrumentedFilter around a migratable ShardedFilter, a Tuner polling
// its signals, and the decision surfacing through the metrics exporters.
//
// Build & run:  ./tuner_demo

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/registry.h"
#include "core/sharded_filter.h"
#include "obs/export.h"
#include "obs/instrumented.h"
#include "tuning/tuner.h"
#include "workload/generators.h"

using bbf::CreateFilter;
using bbf::GenerateAdversarialRepeatQueries;
using bbf::GenerateDistinctKeys;
using bbf::ShardedFilter;

namespace {

double StreamFpRate(const bbf::obs::InstrumentedFilter& filter,
                    const std::vector<uint64_t>& stream) {
  uint64_t fp = 0;
  for (uint64_t k : stream) fp += filter.Contains(k);
  return static_cast<double>(fp) / static_cast<double>(stream.size());
}

}  // namespace

int main() {
  // A shard the capacity-planning guess left too loose: blocked-bloom at
  // 25% epsilon, while the service promises 1%.
  constexpr uint64_t kNumKeys = 20'000;
  constexpr double kBudget = 0.01;
  // Built with a journal cap, so its shard journals every acked op and
  // can migrate online.
  auto inner = std::make_unique<ShardedFilter>(
      kNumKeys, 1,
      [](uint64_t cap) { return CreateFilter("blocked-bloom", cap, 0.25); },
      bbf::SaturationConfig{}, ShardedFilter::kDefaultJournalCap);
  bbf::obs::InstrumentedFilter filter(std::move(inner), 0.25);

  const auto keys = GenerateDistinctKeys(kNumKeys, 7);
  for (uint64_t k : keys) filter.Insert(k);

  // The adversarial-repeat workload: 90% of queries replay a fixed hot
  // set of negatives, so the hot keys this filter false-positives on come
  // back over and over — the pattern a static filter can never shake.
  const auto stream = GenerateAdversarialRepeatQueries(
      keys, /*hot_count=*/8192, /*hot_frac=*/0.9, /*stream_len=*/300'000);

  std::printf("== before: adversarial replay against blocked-bloom ==\n");
  const double fp_before = StreamFpRate(filter, stream);
  std::printf("stream false-positive rate: %.4f (budget %.4f)\n\n", fp_before,
              kBudget);

  bbf::tuning::TunerConfig cfg;
  cfg.fpr_budget = kBudget;
  bbf::tuning::Tuner tuner(filter, cfg);

  std::printf("== tuner status after the abuse ==\n%s\n",
              tuner.StatusText().c_str());

  const auto poll = tuner.Poll();
  std::printf("== tuner decision ==\n%s\n", poll.decision.reason.c_str());
  if (!poll.acted || !poll.report.ok) {
    std::fprintf(stderr, "migration did not run: %s\n",
                 poll.report.error.c_str());
    return 1;
  }
  std::printf("migrated shard %zu: %s -> %s (pause %.3f ms, %llu ops "
              "replayed)\n\n",
              poll.decision.shard, poll.decision.from_family.c_str(),
              poll.decision.to_family.c_str(),
              static_cast<double>(poll.report.pause_ns) / 1e6,
              static_cast<unsigned long long>(poll.report.replayed_ops));

  std::printf("== after: the same replay against the successor ==\n");
  const double fp_after = StreamFpRate(filter, stream);
  std::printf("stream false-positive rate: %.4f (budget %.4f)\n", fp_after,
              kBudget);

  // No key was harmed in the making of this migration.
  for (uint64_t k : keys) {
    if (!filter.Contains(k)) {
      std::fprintf(stderr, "migration lost a key\n");
      return 1;
    }
  }
  std::printf("all %llu inserted keys still served\n\n",
              static_cast<unsigned long long>(kNumKeys));

  // The lifecycle counters ride the same exporters as every other metric,
  // so a fleet dashboard sees the migration without new plumbing.
  bbf::obs::MetricsRegistry registry;
  registry.Register("edge-cache", [&] { return tuner.MetricsSnapshot(); });
  std::printf("== tuner metrics (Prometheus exposition) ==\n%s",
              bbf::obs::RenderPrometheus(registry.Snapshot()).c_str());
  return 0;
}
