#ifndef BBF_OBS_METRICS_H_
#define BBF_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/fpr_estimator.h"
#include "core/key.h"
#include "core/metrics_sink.h"

namespace bbf::obs {

/// Monotonic wall time in nanoseconds, for sampled latency measurement.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One relaxed-atomic counter padded to a full cache line, so counters
/// incremented by different threads (per-shard insert paths) never
/// false-share. Relaxed ordering is sufficient: counters are monotone
/// tallies read at snapshot time, never used for synchronization.
struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> value{0};

  void Add(uint64_t n = 1) { value.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Load() const { return value.load(std::memory_order_relaxed); }
};

/// Point-in-time copy of one histogram, in exporter-ready form:
/// Prometheus-style cumulative bucket counts over power-of-two upper
/// bounds plus an implicit +Inf bucket.
struct HistogramSnapshot {
  std::string name;
  std::vector<uint64_t> bounds;      // Finite upper bounds (0, 1, 2, 4, ...).
  std::vector<uint64_t> cumulative;  // bounds.size() + 1 entries; last = +Inf.
  uint64_t sum = 0;
  uint64_t count = 0;  // == cumulative.back().
};

/// Lock-free histogram over power-of-two buckets: bucket 0 holds exact
/// zeros, bucket i (i >= 1) holds values in (2^(i-2), 2^(i-1)], and the
/// final bucket absorbs everything larger. Covers kick-chain lengths,
/// probe scans, and batch sizes without configuration; Record is two
/// relaxed fetch_adds.
class Log2Histogram {
 public:
  /// 0, 1, 2, 4, ..., 2^14 finite bounds plus the +Inf catch-all.
  static constexpr size_t kFiniteBounds = 16;
  static constexpr size_t kBuckets = kFiniteBounds + 1;

  static size_t BucketOf(uint64_t v) {
    if (v == 0) return 0;
    // Smallest i with v <= 2^(i-1), i.e. ceil(log2(v)) + 1.
    const size_t b = static_cast<size_t>(std::bit_width(v - 1)) + 1;
    return b < kBuckets ? b : kBuckets - 1;
  }

  static uint64_t BoundOf(size_t bucket) {
    return bucket == 0 ? 0 : uint64_t{1} << (bucket - 1);
  }

  void Record(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot(std::string name) const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

/// Fixed-size sampled latency reservoir. Writers overwrite slots round-
/// robin with relaxed atomics (a torn quantile sample is acceptable by
/// design — this is an estimator, not an audit log); Snapshot copies and
/// sorts. Callers decide the sampling rate; recording is one fetch_add
/// plus one store.
class LatencyReservoir {
 public:
  static constexpr size_t kCapacity = 1024;

  void Record(uint64_t nanos) {
    const size_t slot = static_cast<size_t>(
        next_.fetch_add(1, std::memory_order_relaxed) % kCapacity);
    slots_[slot].store(nanos, std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t samples = 0;  // Total recorded (may exceed kCapacity).
    uint64_t p50_ns = 0;
    uint64_t p99_ns = 0;
    uint64_t max_ns = 0;
  };
  Snapshot Snap() const;

 private:
  std::atomic<uint64_t> next_{0};
  std::array<std::atomic<uint64_t>, kCapacity> slots_{};
};

/// Point-in-time copy of a full metrics set, the unit the exporters
/// (obs/export.h) render. Names are final Prometheus-style suffixed
/// names without the `bbf_` prefix (the exporter adds it).
struct MetricsSnapshot {
  struct Counter {
    std::string name;
    uint64_t value = 0;
  };
  struct Gauge {
    std::string name;
    double value = 0.0;
  };
  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// The always-on per-filter metrics block (DESIGN.md §11): cache-line-
/// padded relaxed-atomic counters, three power-of-two histograms, a
/// sampled latency reservoir, and the observed-FPR estimator. Implements
/// MetricsSink so families report structural events straight into it.
struct FilterMetrics : MetricsSink {
  // Op counters, maintained by InstrumentedFilter.
  PaddedCounter lookups;
  PaddedCounter lookup_hits;
  PaddedCounter inserts;
  PaddedCounter insert_failures;
  PaddedCounter erases;
  PaddedCounter erase_failures;
  PaddedCounter fp_reports;  // ReportFalsePositive calls.
  // Structural-event counters, maintained via the MetricsSink hooks.
  PaddedCounter expansions;
  PaddedCounter adapt_events;

  Log2Histogram kick_chain;    // Cuckoo displacement-chain lengths.
  Log2Histogram probe_length;  // Quotient run-scan lengths, including the
                               // Memento filter's memento-list scans (one
                               // event per probed prefix).
  Log2Histogram batch_size;    // ContainsMany/InsertMany batch sizes.

  LatencyReservoir lookup_latency;
  ObservedFprEstimator fpr;

  /// The epsilon the filter was configured for; exported next to the
  /// observed FPR. 0 = unknown.
  double configured_epsilon = 0.0;

  /// Kick-chain and probe-run events fire once per insert/lookup in some
  /// families, and a histogram Record costs two uncontended RMWs — real
  /// money next to a one-cache-line probe (it alone put quotient lookups
  /// ~20% over raw). They are therefore sampled 1-in-kStructuralSample
  /// before touching the histogram. The tick uses relaxed load+store, not
  /// fetch_add: concurrent updates may lose ticks, which only perturbs
  /// the sampling phase, never histogram integrity, and keeps the common
  /// path at two plain MOVs. Single-threaded sequences are deterministic:
  /// events 0, S, 2S, ... are the ones recorded. Rare events (expansions,
  /// adapts) stay exact. The factor is exported as the
  /// `structural_event_sample_every` gauge so dashboards can scale
  /// histogram counts back to event rates.
  static constexpr uint64_t kStructuralSampleEvery = 32;

  // MetricsSink:
  void OnKickChain(uint64_t kicks) override {
    if (SampleTick(kick_tick_)) kick_chain.Record(kicks);
  }
  void OnProbeLength(uint64_t slots) override {
    if (SampleTick(probe_tick_)) probe_length.Record(slots);
  }
  void OnExpansion() override { expansions.Add(); }
  void OnAdapt() override { adapt_events.Add(); }

  /// Renders every counter, gauge, and histogram in fixed order.
  MetricsSnapshot Snapshot() const;

 private:
  static bool SampleTick(std::atomic<uint64_t>& tick) {
    const uint64_t t = tick.load(std::memory_order_relaxed);
    tick.store(t + 1, std::memory_order_relaxed);
    return (t & (kStructuralSampleEvery - 1)) == 0;
  }

  alignas(64) std::atomic<uint64_t> kick_tick_{0};
  alignas(64) std::atomic<uint64_t> probe_tick_{0};
};

}  // namespace bbf::obs

#endif  // BBF_OBS_METRICS_H_
