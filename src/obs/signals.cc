#include "obs/signals.h"

namespace bbf::obs {

TunerSignals PullTunerSignals(const InstrumentedFilter& filter,
                              uint64_t min_negative_lookups) {
  TunerSignals s;
  const FilterMetrics& m = filter.metrics();
  s.configured_epsilon = m.configured_epsilon;
  s.fpr = m.fpr.Snap();
  const auto* sharded = dynamic_cast<const ShardedFilter*>(&filter.inner());
  if (sharded == nullptr) return s;
  s.sharded = true;
  s.shards = sharded->Stats();
  s.hottest_shard = ShardedFilter::HottestOf(s.shards);
  double worst_fpr = -1.0;
  for (size_t i = 0; i < s.shards.size(); ++i) {
    const ShardedFilter::ShardStats& sh = s.shards[i];
    // observed_fpr is negative exactly when the shard has no estimator.
    if (sh.observed_fpr >= 0.0 &&
        sh.fpr_negative_lookups >= min_negative_lookups &&
        sh.observed_fpr > worst_fpr) {
      worst_fpr = sh.observed_fpr;
      s.worst_fpr_shard = i;
    }
  }
  return s;
}

}  // namespace bbf::obs
