#include "obs/instrumented.h"

#include <algorithm>
#include <utility>

#include "core/sharded_filter.h"

namespace bbf::obs {

InstrumentedFilter::InstrumentedFilter(std::unique_ptr<Filter> inner,
                                       double configured_epsilon)
    : inner_(std::move(inner)),
      hook_(dynamic_cast<AdaptiveHook*>(inner_.get())) {
  metrics_.configured_epsilon = configured_epsilon;
  inner_->AttachMetricsSink(&metrics_);
}

InstrumentedFilter::~InstrumentedFilter() {
  // The metrics block dies with this object; never leave the inner
  // filter pointing at it.
  if (inner_) inner_->AttachMetricsSink(nullptr);
}

bool InstrumentedFilter::Insert(HashedKey key) {
  const bool ok = inner_->Insert(key);
  metrics_.inserts.Add();
  if (!ok) metrics_.insert_failures.Add();
  if (ok && ObservedFprEstimator::InDomain(key)) {
    metrics_.fpr.RecordInsert(key);
  }
  return ok;
}

bool InstrumentedFilter::Contains(HashedKey key) const {
  // Load+store, not fetch_add: ticks lost to races only shift the
  // sampling phase, and the plain MOVs keep the scalar path cheap.
  const uint64_t tick = op_tick_.value.load(std::memory_order_relaxed);
  op_tick_.value.store(tick + 1, std::memory_order_relaxed);
  const bool timed = (tick & (kLatencySampleEvery - 1)) == 0;
  const uint64_t start = timed ? NowNanos() : 0;
  const bool hit = inner_->Contains(key);
  if (timed) metrics_.lookup_latency.Record(NowNanos() - start);
  metrics_.lookups.Add();
  if (hit) metrics_.lookup_hits.Add();
  if (ObservedFprEstimator::InDomain(key)) {
    metrics_.fpr.RecordLookup(key, hit);
  }
  return hit;
}

void InstrumentedFilter::ContainsMany(std::span<const HashedKey> keys,
                                      uint8_t* out) const {
  if (keys.empty()) return;
  const uint64_t start = NowNanos();
  inner_->ContainsMany(keys, out);
  const uint64_t elapsed = NowNanos() - start;
  const size_t n = keys.size();
  metrics_.batch_size.Record(n);
  metrics_.lookups.Add(n);
  uint64_t hits = 0;
  for (size_t i = 0; i < n; ++i) hits += out[i];
  metrics_.lookup_hits.Add(hits);
  // One amortized per-key latency sample per batch.
  metrics_.lookup_latency.Record(elapsed / n);
  // Strided FPR sampling: scoring every in-domain key would funnel 1/64th
  // of the batch through the estimator mutex. A position stride is
  // unbiased (batch order is independent of the key-domain test) and caps
  // the cost at 1/16th of a domain test per key.
  for (size_t i = 0; i < n; i += kBatchFprStride) {
    if (ObservedFprEstimator::InDomain(keys[i])) {
      metrics_.fpr.RecordLookup(keys[i], out[i] != 0);
    }
  }
}

size_t InstrumentedFilter::InsertMany(std::span<const HashedKey> keys) {
  const size_t inserted = inner_->InsertMany(keys);
  metrics_.inserts.Add(keys.size());
  metrics_.insert_failures.Add(keys.size() - inserted);
  // A partial batch doesn't report *which* keys failed, so record every
  // in-domain key as present. A rejected key recorded as present is only
  // ever excluded from the estimator's negative pool — conservative, the
  // observed FPR can't be inflated by it. Collect first, record once:
  // the bulk form takes the estimator lock a single time per batch.
  std::vector<uint64_t> sampled;
  sampled.reserve(keys.size() / ObservedFprEstimator::kSampleRate + 1);
  for (HashedKey key : keys) {
    if (ObservedFprEstimator::InDomain(key)) sampled.push_back(key.value());
  }
  metrics_.fpr.RecordInserts(sampled);
  return inserted;
}

bool InstrumentedFilter::Erase(HashedKey key) {
  const bool ok = inner_->Erase(key);
  metrics_.erases.Add();
  if (!ok) metrics_.erase_failures.Add();
  if (ok && ObservedFprEstimator::InDomain(key)) {
    metrics_.fpr.RecordErase(key);
  }
  return ok;
}

uint64_t InstrumentedFilter::Count(HashedKey key) const {
  const uint64_t count = inner_->Count(key);
  metrics_.lookups.Add();
  if (count > 0) metrics_.lookup_hits.Add();
  if (ObservedFprEstimator::InDomain(key)) {
    metrics_.fpr.RecordLookup(key, count > 0);
  }
  return count;
}

void InstrumentedFilter::AttachMetricsSink(MetricsSink* sink) {
  Filter::AttachMetricsSink(sink);
  inner_->AttachMetricsSink(sink);
}

bool InstrumentedFilter::ReportFalsePositive(HashedKey key) {
  metrics_.fp_reports.Add();
  return hook_ != nullptr && hook_->ReportFalsePositive(key);
}

MetricsSnapshot InstrumentedFilter::Snapshot() const {
  MetricsSnapshot snap = metrics_.Snapshot();
  snap.gauges.push_back({"load_factor", inner_->LoadFactor()});
  snap.gauges.push_back(
      {"num_keys", static_cast<double>(inner_->NumKeys())});
  snap.gauges.push_back(
      {"space_bits", static_cast<double>(inner_->SpaceBits())});
  snap.gauges.push_back({"bits_per_key", inner_->BitsPerKey()});
  if (const auto* sharded = dynamic_cast<const ShardedFilter*>(inner_.get())) {
    uint64_t accepted = 0;
    uint64_t expanded = 0;
    uint64_t rejected = 0;
    uint64_t generations = 0;
    uint64_t saturated = 0;
    uint64_t hottest_keys = 0;
    for (const ShardedFilter::ShardStats& s : sharded->Stats()) {
      accepted += s.accepted;
      expanded += s.expanded;
      rejected += s.rejected;
      generations += s.generations;
      saturated += s.saturated;
      hottest_keys = std::max(hottest_keys, s.num_keys);
    }
    snap.counters.push_back({"saturation_accepted_total", accepted});
    snap.counters.push_back({"saturation_expanded_total", expanded});
    snap.counters.push_back({"saturation_rejected_total", rejected});
    snap.counters.push_back({"load_quarantined_shards_total",
                             sharded->TotalQuarantinedShards()});
    snap.gauges.push_back(
        {"shard_count",
         static_cast<double>(sharded->num_shards())});
    snap.gauges.push_back(
        {"shard_generations", static_cast<double>(generations)});
    snap.gauges.push_back(
        {"shards_saturated", static_cast<double>(saturated)});
    snap.gauges.push_back(
        {"hottest_shard_keys", static_cast<double>(hottest_keys)});
  }
  return snap;
}

}  // namespace bbf::obs
