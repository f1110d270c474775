#ifndef BBF_OBS_SIGNALS_H_
#define BBF_OBS_SIGNALS_H_

#include <cstdint>
#include <vector>

#include "core/fpr_estimator.h"
#include "core/sharded_filter.h"
#include "obs/instrumented.h"

namespace bbf::obs {

/// Everything the Tuner (src/tuning) reads in one pull — the
/// observability half of the auto-tuning loop (DESIGN.md §15). A pull
/// API rather than a callback: the Tuner polls on its own cadence, so
/// the hot paths never pay for a subscriber and the obs layer needs no
/// knowledge of tuning policy.
struct TunerSignals {
  /// The epsilon the filter was configured for (0 = unknown).
  double configured_epsilon = 0.0;
  /// Whole-filter observed-FPR estimate with Wilson CI and the
  /// repeated-false-positive sketch readout.
  ObservedFprEstimator::Snapshot fpr;

  // --- Sharded-only signals (empty/default when the inner filter is not
  // a ShardedFilter) ---------------------------------------------------
  bool sharded = false;
  /// Per-shard occupancy, family, migration count, and (on tracked
  /// shards) the observed-FPR column.
  std::vector<ShardedFilter::ShardStats> shards;
  /// Index into `shards` of the first shard holding the most keys.
  size_t hottest_shard = 0;
  /// Index into `shards` of the first instrumented shard with the worst
  /// observed FPR (given at least `min_negative_lookups` scored
  /// negatives); ShardedFilter::kNoShard when none qualifies.
  size_t worst_fpr_shard = ShardedFilter::kNoShard;
};

/// Reads every tuner-relevant signal from an instrumented filter. Cheap
/// enough to poll: one metrics snapshot plus, for sharded filters, one
/// Stats() pass (each shard read once, under its shared lock); both
/// shard indices are computed from that one snapshot.
TunerSignals PullTunerSignals(const InstrumentedFilter& filter,
                              uint64_t min_negative_lookups = 256);

}  // namespace bbf::obs

#endif  // BBF_OBS_SIGNALS_H_
