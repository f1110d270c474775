#ifndef BBF_TUNING_TUNER_H_
#define BBF_TUNING_TUNER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/sharded_filter.h"
#include "obs/export.h"
#include "obs/instrumented.h"
#include "obs/signals.h"

namespace bbf::tuning {

/// Why a policy tripped.
enum class TunerTrigger : uint8_t {
  kNone = 0,
  kRepeatedFp,  // Adversarial-repeat sketch found hammered FP keys.
  kFprBreach,   // Observed FPR provably (ci_low) above budget.
  kLoadKnee,    // Shard's newest generation past the load knee.
  kShardSkew,   // Hottest shard holds a kSkewRatio multiple of the mean.
};

/// What the decision table chose to do about it.
enum class TunerAction : uint8_t {
  kNone = 0,
  kMigrateAdaptive,   // Move the shard to a supports_adapt family.
  kMigrateStacked,    // Front the shard with a stacked filter.
  kMigrateTighterFpr, // Rebuild the same family at a tighter epsilon.
  kRebalanceShard,    // Rebuild the same family with more capacity.
};

const char* ToString(TunerTrigger trigger);
const char* ToString(TunerAction action);

/// One decision of the table — pure data, so tests can drive Evaluate()
/// on synthetic signals without touching a live filter.
struct TunerDecision {
  TunerAction action = TunerAction::kNone;
  TunerTrigger trigger = TunerTrigger::kNone;
  size_t shard = ShardedFilter::kNoShard;
  std::string from_family;
  std::string to_family;
  double target_fpr = 0.0;
  uint64_t capacity_boost = 1;  // Successor capacity multiplier.
  std::string reason;           // Human-readable, for logs and the wire.
};

/// What a deployment chooses. The decision thresholds are constants in
/// tuner.cc (DESIGN.md §15): deliberately conservative, the Tuner only
/// acts on statistically solid evidence (Wilson ci_low, a minimum
/// negative-sample count) and cools down between actions.
struct TunerConfig {
  /// Total FPR budget the serving filter must stay under.
  double fpr_budget = 0.01;
  /// Families considered for the adaptive migration, in preference
  /// order; each is checked against the registry's supports_adapt bit.
  std::vector<std::string> adapt_candidates{"adaptive-cuckoo",
                                            "adaptive-quotient"};
  /// When set, a training sample of hot negative raw keys is available
  /// and FPR breaches migrate to a stacked front instead of a tighter
  /// rebuild. Called at migration time.
  std::function<std::vector<uint64_t>()> training_sample;
};

/// The closed loop from observability to the registry (DESIGN.md §15):
/// polls an InstrumentedFilter's signals, walks a registry-driven
/// decision table, and migrates individual shards online via
/// ShardedFilter::MigrateShard when a policy trips. The wrapped filter's
/// inner filter must be a ShardedFilter built with a journal cap;
/// otherwise every poll is a no-op with a reason.
///
/// Thread-safety: Poll/Evaluate/status may be called from any thread
/// (one internal mutex serializes the tuner; serving threads only ever
/// contend on the shard being swapped, and only for the migration
/// pause). Typical deployments run Poll on a timer thread and expose
/// WireControl() through the network front end.
class Tuner {
 public:
  /// `filter` must outlive the Tuner. Installs a stacked-serving-aware
  /// snapshot TagBuilder on the inner ShardedFilter so v3 snapshots with
  /// migrated shards reload (the stacked-serving tag is deliberately not
  /// in the global registry).
  explicit Tuner(obs::InstrumentedFilter& filter, TunerConfig config = {});

  /// False when the wrapped inner filter is not a ShardedFilter.
  bool valid() const { return sharded_ != nullptr; }

  /// Pure decision table over one signal pull — no side effects, no
  /// cooldown. Exposed so tests can table-drive it.
  TunerDecision Evaluate(const obs::TunerSignals& signals) const;

  /// One tick of the loop: pull signals, evaluate, and (cooldown
  /// permitting) apply the decision by migrating the chosen shard.
  struct PollResult {
    TunerDecision decision;
    bool acted = false;
    ShardedFilter::MigrationReport report;  // Meaningful when acted.
  };
  PollResult Poll();

  /// Lifecycle counters and last-action gauges, exporter-ready with the
  /// tuner_ name prefix; feed to MetricsRegistry::Register for both the
  /// Prometheus and JSON exporters.
  obs::MetricsSnapshot MetricsSnapshot() const;
  void RegisterMetrics(obs::MetricsRegistry& registry, std::string label);

  /// Human-readable status: per-shard family/FPR table plus the decision
  /// history tail. Served by the network front end's tuner-ctl opcode.
  std::string StatusText() const;

  /// Control surface for the network front end (kTunerCtl): cmd 0 =
  /// status text, cmd 1 = poll once and describe the outcome. Returned
  /// as a function so apps/net never links against bbf_tuning.
  std::function<std::string(uint8_t)> WireControl();

  /// Decisions applied so far (most recent last, capped).
  std::vector<TunerDecision> History() const;

 private:
  ShardedFilter::MigrationReport ApplyLocked(const TunerDecision& decision);

  obs::InstrumentedFilter& filter_;
  ShardedFilter* sharded_;  // filter_'s inner, when sharded.
  TunerConfig config_;

  mutable std::mutex mu_;
  int polls_since_action_;
  std::vector<TunerDecision> history_;
  struct Counters {
    uint64_t polls = 0;
    uint64_t decisions = 0;
    uint64_t migrations = 0;
    uint64_t migration_failures = 0;
    uint64_t trigger_repeat = 0;
    uint64_t trigger_fpr = 0;
    uint64_t trigger_load = 0;
    uint64_t trigger_skew = 0;
    uint64_t last_pause_ns = 0;
    uint64_t last_shard = 0;
  } counters_;
};

}  // namespace bbf::tuning

#endif  // BBF_TUNING_TUNER_H_
