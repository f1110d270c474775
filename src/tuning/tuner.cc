#include "tuning/tuner.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/filter_io.h"
#include "core/registry.h"
#include "tuning/stacked_serving.h"

namespace bbf::tuning {

namespace {

constexpr size_t kHistoryCap = 64;

// The decision thresholds (DESIGN.md §15), conservative on purpose: a
// policy trips only on statistically solid evidence, and the loop cools
// down between actions.
constexpr uint64_t kMinNegativeSamples = 512;  // Before a shard's CI counts.
constexpr double kLoadKnee = 0.95;        // Newest-generation load factor.
constexpr double kSkewRatio = 4.0;        // Hottest shard's keys / the mean.
constexpr uint64_t kSkewMinKeys = 1024;   // Hottest shard's keys to act.
constexpr uint64_t kRepeatThreshold = 2;  // Repeat-hot FP keys to act.
constexpr int kCooldownPolls = 2;         // Polls after an action.
constexpr double kTightenFactor = 0.25;   // Epsilon scale on an FPR breach.

// Reasons carry numbers; keep a stable, greppable formatting.
std::string FmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const char* ToString(TunerTrigger trigger) {
  switch (trigger) {
    case TunerTrigger::kNone:
      return "none";
    case TunerTrigger::kRepeatedFp:
      return "repeated-fp";
    case TunerTrigger::kFprBreach:
      return "fpr-breach";
    case TunerTrigger::kLoadKnee:
      return "load-knee";
    case TunerTrigger::kShardSkew:
      return "shard-skew";
  }
  return "unknown";
}

const char* ToString(TunerAction action) {
  switch (action) {
    case TunerAction::kNone:
      return "none";
    case TunerAction::kMigrateAdaptive:
      return "migrate-adaptive";
    case TunerAction::kMigrateStacked:
      return "migrate-stacked";
    case TunerAction::kMigrateTighterFpr:
      return "migrate-tighter-fpr";
    case TunerAction::kRebalanceShard:
      return "rebalance-shard";
  }
  return "unknown";
}

Tuner::Tuner(obs::InstrumentedFilter& filter, TunerConfig config)
    : filter_(filter),
      sharded_(dynamic_cast<ShardedFilter*>(&filter.inner())),
      config_(std::move(config)),
      // Start past the cooldown so the first solid decision acts.
      polls_since_action_(kCooldownPolls) {
  if (sharded_ == nullptr) return;
  sharded_->SetSnapshotTagBuilder(
      [](std::string_view tag, uint64_t capacity) -> std::unique_ptr<Filter> {
        if (tag == "stacked-serving") {
          return std::make_unique<StackedServingFilter>(capacity);
        }
        return CreateFilterForTag(tag, capacity);
      });
}

TunerDecision Tuner::Evaluate(const obs::TunerSignals& s) const {
  TunerDecision d;
  if (!s.sharded) {
    d.reason = "inner filter is not a ShardedFilter; tuner idle";
    return d;
  }
  const size_t n = s.shards.size();

  // --- 1. Adversarial repeats: the strongest signal. A per-shard sketch
  // hit names the shard directly; the whole-filter sketch (always on via
  // InstrumentedFilter) falls back to the worst-FPR shard.
  size_t repeat_shard = ShardedFilter::kNoShard;
  uint64_t repeat_keys = 0;
  auto lacks_adapt = [](const std::string& family) {
    const FilterEntry* e = FindFilterEntry(family);
    return e == nullptr || !e->caps.supports_adapt;
  };
  for (size_t i = 0; i < n; ++i) {
    const ShardedFilter::ShardStats& sh = s.shards[i];
    if (sh.fpr_repeated_keys >= kRepeatThreshold &&
        sh.fpr_repeated_keys > repeat_keys && lacks_adapt(sh.family)) {
      repeat_shard = i;
      repeat_keys = sh.fpr_repeated_keys;
    }
  }
  if (repeat_shard == ShardedFilter::kNoShard &&
      s.fpr.fp_repeated_keys >= kRepeatThreshold &&
      s.worst_fpr_shard != ShardedFilter::kNoShard &&
      lacks_adapt(s.shards[s.worst_fpr_shard].family)) {
    repeat_shard = s.worst_fpr_shard;
    repeat_keys = s.fpr.fp_repeated_keys;
  }
  if (repeat_shard != ShardedFilter::kNoShard) {
    for (const std::string& candidate : config_.adapt_candidates) {
      const FilterEntry* e = FindFilterEntry(candidate);
      if (e != nullptr && e->in_factory && e->caps.supports_adapt) {
        d.action = TunerAction::kMigrateAdaptive;
        d.trigger = TunerTrigger::kRepeatedFp;
        d.shard = repeat_shard;
        d.from_family = s.shards[repeat_shard].family;
        d.to_family = candidate;
        d.target_fpr = config_.fpr_budget;
        d.reason = std::to_string(repeat_keys) +
                   " repeat-hot false-positive keys on shard " +
                   std::to_string(repeat_shard) + " (" + d.from_family +
                   " cannot adapt)";
        return d;
      }
    }
    // No registered adaptive family: fall through to the FPR policies.
  }

  // --- 2. FPR provably over budget: ci_low (not the point estimate)
  // above budget with enough scored negatives.
  size_t breach_shard = ShardedFilter::kNoShard;
  double worst_ci_low = config_.fpr_budget;
  for (size_t i = 0; i < n; ++i) {
    const ShardedFilter::ShardStats& sh = s.shards[i];
    if (sh.observed_fpr >= 0.0 &&
        sh.fpr_negative_lookups >= kMinNegativeSamples &&
        sh.fpr_ci_low > worst_ci_low) {
      breach_shard = i;
      worst_ci_low = sh.fpr_ci_low;
    }
  }
  if (breach_shard != ShardedFilter::kNoShard) {
    const ShardedFilter::ShardStats& sh = s.shards[breach_shard];
    const std::string detail =
        "shard " + std::to_string(breach_shard) + " observed FPR " +
        FmtDouble(sh.observed_fpr) + " (ci_low " + FmtDouble(sh.fpr_ci_low) +
        ") above budget " + FmtDouble(config_.fpr_budget);
    if (config_.training_sample) {
      d.action = TunerAction::kMigrateStacked;
      d.trigger = TunerTrigger::kFprBreach;
      d.shard = breach_shard;
      d.from_family = sh.family;
      d.to_family = "stacked-serving";
      d.target_fpr = config_.fpr_budget;
      d.reason = detail + "; training sample available, stacking";
      return d;
    }
    const FilterEntry* e = FindFilterEntry(sh.family);
    if (e != nullptr && e->in_factory) {
      d.action = TunerAction::kMigrateTighterFpr;
      d.trigger = TunerTrigger::kFprBreach;
      d.shard = breach_shard;
      d.from_family = sh.family;
      d.to_family = sh.family;
      d.target_fpr = config_.fpr_budget * kTightenFactor;
      d.reason = detail + "; rebuilding at epsilon " + FmtDouble(d.target_fpr);
      return d;
    }
  }

  // --- 3. Load knee: the shard is about to degrade (chain/reject).
  size_t knee_shard = ShardedFilter::kNoShard;
  double knee_load = kLoadKnee;
  for (size_t i = 0; i < n; ++i) {
    const ShardedFilter::ShardStats& sh = s.shards[i];
    const FilterEntry* e = FindFilterEntry(sh.family);
    if (sh.load_factor >= knee_load && e != nullptr && e->in_factory) {
      knee_shard = i;
      knee_load = sh.load_factor;
    }
  }
  if (knee_shard != ShardedFilter::kNoShard) {
    d.action = TunerAction::kRebalanceShard;
    d.trigger = TunerTrigger::kLoadKnee;
    d.shard = knee_shard;
    d.from_family = s.shards[knee_shard].family;
    d.to_family = d.from_family;
    d.target_fpr = config_.fpr_budget;
    d.capacity_boost = 2;
    d.reason = "shard " + std::to_string(knee_shard) + " load factor " +
               FmtDouble(knee_load) + " past knee " +
               FmtDouble(kLoadKnee);
    return d;
  }

  // --- 4. Skew: one shard holds a multiple of the mean key count.
  if (n > 1) {
    uint64_t total = 0;
    for (const ShardedFilter::ShardStats& sh : s.shards) total += sh.num_keys;
    const double mean = static_cast<double>(total) / static_cast<double>(n);
    const ShardedFilter::ShardStats& hot = s.shards[s.hottest_shard];
    const FilterEntry* e = FindFilterEntry(hot.family);
    if (hot.num_keys >= kSkewMinKeys && mean > 0.0 &&
        static_cast<double>(hot.num_keys) > kSkewRatio * mean &&
        e != nullptr && e->in_factory) {
      d.action = TunerAction::kRebalanceShard;
      d.trigger = TunerTrigger::kShardSkew;
      d.shard = s.hottest_shard;
      d.from_family = hot.family;
      d.to_family = hot.family;
      d.target_fpr = config_.fpr_budget;
      d.capacity_boost = 2;
      d.reason = "shard " + std::to_string(s.hottest_shard) + " holds " +
                 std::to_string(hot.num_keys) + " keys vs mean " +
                 FmtDouble(mean) + " (ratio budget " +
                 FmtDouble(kSkewRatio) + ")";
      return d;
    }
  }

  d.reason = "no policy tripped";
  return d;
}

Tuner::PollResult Tuner::Poll() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.polls;
  PollResult result;
  if (sharded_ == nullptr) {
    result.decision.reason = "inner filter is not a ShardedFilter";
    return result;
  }
  const obs::TunerSignals signals =
      obs::PullTunerSignals(filter_, kMinNegativeSamples);
  result.decision = Evaluate(signals);
  if (result.decision.action == TunerAction::kNone) {
    ++polls_since_action_;
    return result;
  }
  if (polls_since_action_ < kCooldownPolls) {
    ++polls_since_action_;
    result.decision.reason += " [cooling down, not applied]";
    return result;
  }
  ++counters_.decisions;
  switch (result.decision.trigger) {
    case TunerTrigger::kRepeatedFp:
      ++counters_.trigger_repeat;
      break;
    case TunerTrigger::kFprBreach:
      ++counters_.trigger_fpr;
      break;
    case TunerTrigger::kLoadKnee:
      ++counters_.trigger_load;
      break;
    case TunerTrigger::kShardSkew:
      ++counters_.trigger_skew;
      break;
    case TunerTrigger::kNone:
      break;
  }
  result.report = ApplyLocked(result.decision);
  result.acted = true;
  if (result.report.ok) {
    ++counters_.migrations;
    counters_.last_pause_ns = result.report.pause_ns;
    counters_.last_shard = result.decision.shard;
    polls_since_action_ = 0;
  } else {
    ++counters_.migration_failures;
    result.decision.reason += " [migration failed: " + result.report.error +
                              "]";
  }
  history_.push_back(result.decision);
  if (history_.size() > kHistoryCap) {
    history_.erase(history_.begin(), history_.end() - kHistoryCap);
  }
  return result;
}

ShardedFilter::MigrationReport Tuner::ApplyLocked(
    const TunerDecision& decision) {
  switch (decision.action) {
    case TunerAction::kMigrateAdaptive:
    case TunerAction::kMigrateTighterFpr:
    case TunerAction::kRebalanceShard: {
      const std::string family = decision.to_family;
      const double fpr = decision.target_fpr;
      const uint64_t boost = std::max<uint64_t>(decision.capacity_boost, 1);
      return sharded_->MigrateShard(
          decision.shard, [family, fpr, boost](uint64_t capacity) {
            return CreateFilter(family, capacity * boost, fpr);
          });
    }
    case TunerAction::kMigrateStacked: {
      std::vector<uint64_t> sample;
      if (config_.training_sample) sample = config_.training_sample();
      StackedServingFilter::Params params;
      params.fpr_budget =
          decision.target_fpr > 0.0 ? decision.target_fpr : config_.fpr_budget;
      auto builder = [sample = std::move(sample), params](
                         std::span<const FilterJournalOp> ops,
                         uint64_t capacity) -> std::unique_ptr<Filter> {
        // Stacking is insert-only: a journaled erase means the workload
        // can delete, which the static front cannot unlearn — abort and
        // leave the shard on its current family.
        for (const FilterJournalOp& op : ops) {
          if (op.erase) return nullptr;
        }
        return std::make_unique<StackedServingFilter>(
            StackedServingFilter::NetPositives(ops), sample, capacity,
            params);
      };
      // Chained generations and quarantine rebuilds after the swap go to
      // a self-expanding overflow family at the same budget.
      auto overflow_factory = [params](uint64_t capacity) {
        return std::unique_ptr<Filter>(std::make_unique<ScalableBloomFilter>(
            std::max<uint64_t>(capacity / 8, 64), params.fpr_budget));
      };
      return sharded_->MigrateShard(decision.shard, std::move(builder),
                                    std::move(overflow_factory));
    }
    case TunerAction::kNone:
      break;
  }
  return {};
}

obs::MetricsSnapshot Tuner::MetricsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::MetricsSnapshot snap;
  snap.counters = {
      {"tuner_polls_total", counters_.polls},
      {"tuner_decisions_total", counters_.decisions},
      {"tuner_migrations_total", counters_.migrations},
      {"tuner_migration_failures_total", counters_.migration_failures},
      {"tuner_trigger_repeated_fp_total", counters_.trigger_repeat},
      {"tuner_trigger_fpr_breach_total", counters_.trigger_fpr},
      {"tuner_trigger_load_knee_total", counters_.trigger_load},
      {"tuner_trigger_shard_skew_total", counters_.trigger_skew},
  };
  const int cooldown_left =
      std::max(0, kCooldownPolls - polls_since_action_);
  snap.gauges = {
      {"tuner_last_pause_ns", static_cast<double>(counters_.last_pause_ns)},
      {"tuner_last_migrated_shard",
       static_cast<double>(counters_.last_shard)},
      {"tuner_cooldown_polls_left", static_cast<double>(cooldown_left)},
  };
  return snap;
}

void Tuner::RegisterMetrics(obs::MetricsRegistry& registry,
                            std::string label) {
  registry.Register(std::move(label),
                    [this]() { return MetricsSnapshot(); });
}

std::string Tuner::StatusText() const {
  std::ostringstream os;
  if (sharded_ == nullptr) {
    return "tuner idle: inner filter is not a ShardedFilter\n";
  }
  const obs::TunerSignals s =
      obs::PullTunerSignals(filter_, kMinNegativeSamples);
  // One lock for the counters and the history, so both describe the
  // same polls.
  std::lock_guard<std::mutex> lock(mu_);
  os << "tuner polls=" << counters_.polls
     << " decisions=" << counters_.decisions
     << " migrations=" << counters_.migrations
     << " failures=" << counters_.migration_failures
     << " last_pause_ns=" << counters_.last_pause_ns << "\n";
  os << "budget fpr=" << FmtDouble(config_.fpr_budget)
     << " observed=" << FmtDouble(s.fpr.observed_fpr) << " ci=["
     << FmtDouble(s.fpr.ci_low) << "," << FmtDouble(s.fpr.ci_high)
     << "] repeats=" << s.fpr.fp_repeated_keys << "\n";
  for (size_t i = 0; i < s.shards.size(); ++i) {
    const ShardedFilter::ShardStats& sh = s.shards[i];
    os << "shard " << i << ": family=" << sh.family
       << " keys=" << sh.num_keys << " load=" << FmtDouble(sh.load_factor)
       << " gens=" << sh.generations << " migrations=" << sh.migrations;
    if (sh.observed_fpr >= 0.0) {
      os << " fpr=" << FmtDouble(sh.observed_fpr)
         << " neg=" << sh.fpr_negative_lookups
         << " repeats=" << sh.fpr_repeated_keys;
    }
    os << "\n";
  }
  for (const TunerDecision& d : history_) {
    os << "decision: " << ToString(d.action) << " shard=" << d.shard << " "
       << d.from_family << "->" << d.to_family << " ["
       << ToString(d.trigger) << "] " << d.reason << "\n";
  }
  return os.str();
}

std::function<std::string(uint8_t)> Tuner::WireControl() {
  return [this](uint8_t cmd) -> std::string {
    switch (cmd) {
      case 0:
        return StatusText();
      case 1: {
        PollResult r = Poll();
        std::ostringstream os;
        os << "action=" << ToString(r.decision.action)
           << " trigger=" << ToString(r.decision.trigger)
           << " shard=" << r.decision.shard << " acted=" << (r.acted ? 1 : 0)
           << " ok=" << (r.report.ok ? 1 : 0)
           << " pause_ns=" << r.report.pause_ns << " reason="
           << r.decision.reason;
        return os.str();
      }
      default:
        return "unknown tuner command " + std::to_string(cmd);
    }
  };
}

std::vector<TunerDecision> Tuner::History() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

}  // namespace bbf::tuning
