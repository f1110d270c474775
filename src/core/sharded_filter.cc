#include "core/sharded_filter.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/metrics_sink.h"
#include "util/serialize.h"

namespace bbf {
namespace {

// Directory layout version for the sharded snapshot frame. v1 had no
// generation chains; its first directory field was a capacity (always far
// larger than any version number), so v1 streams fail the version check
// cleanly instead of misparsing. v3 (migration) records a tag per
// generation because shards diverge by family after MigrateShard.
constexpr uint64_t kShardedDirVersion = 3;

// Sanity cap on per-shard generation counts in snapshots; real configs
// stay in single digits.
constexpr uint64_t kMaxSnapshotGenerations = 4096;

// Capacity multiplier for each chained generation (kChain).
constexpr uint64_t kGenerationGrowth = 2;

// Writes that may land during one successor build before the migration
// aborts — bounds both the replay backlog and the final locked drain.
constexpr size_t kReplayCap = size_t{1} << 16;

// Unlocked catch-up rounds draining the replay backlog before the final
// locked drain-and-swap.
constexpr int kMaxCatchupRounds = 8;

// A catch-up round that drains the replay backlog to this size or below
// stops iterating: the remainder is cheap enough to drain under the lock.
constexpr size_t kFinalDrainTarget = 64;

// Unlocked probes a scalar Contains tries before it takes the shard lock.
constexpr int kUnlockedAttempts = 2;

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Replays journal ops into `successor` in journal order. False when it
// refuses an insert (an erase miss is not a failure).
bool Replay(Filter& successor, std::span<const FilterJournalOp> ops) {
  for (const FilterJournalOp& op : ops) {
    const HashedKey key = HashedKey::FromMix(op.mix);
    if (op.erase) {
      successor.Erase(key);
    } else if (!successor.Insert(key)) {
      return false;
    }
  }
  return true;
}

// Stack scratch bounds for the grouped batch paths: batches up to
// kStackKeys keys (and up to kStackShards-1 shards) run with zero heap
// allocation, which is what makes grouping profitable for mid-size
// batches that the old vector-of-vectors grouping lost money on.
constexpr size_t kStackKeys = 1024;
constexpr size_t kStackShards = 129;

// n (> 0) is a power of two. Spelled out: std::has_single_bit compiles to
// a library popcount call on baseline x86-64 (GCC 12).
constexpr bool IsPowerOfTwo(size_t n) { return (n & (n - 1)) == 0; }

}  // namespace

std::unordered_map<uint64_t, int64_t> NetJournalCounts(
    std::span<const FilterJournalOp> ops) {
  std::unordered_map<uint64_t, int64_t> counts;
  counts.reserve(ops.size());
  for (const FilterJournalOp& op : ops) counts[op.mix] += op.erase ? -1 : 1;
  return counts;
}

void GroupByShard(std::span<const HashedKey> keys, size_t num_shards,
                  HashedKey* sorted, size_t* src, size_t* start) {
  // The shard id of each key is stored, not recomputed: `% num_shards`
  // is a 64-bit divide. A power-of-two count routes by mask instead, in
  // a loop of its own so no key pays a branch on the count.
  constexpr size_t kStackIds = 4096;
  uint32_t sid_stack[kStackIds];
  std::vector<uint32_t> sid_heap;
  uint32_t* sid = sid_stack;
  if (keys.size() > kStackIds) {
    sid_heap.resize(keys.size());
    sid = sid_heap.data();
  }
  std::fill(start, start + num_shards + 1, 0);
  const auto count = [&](auto shard_of) {
    for (size_t i = 0; i < keys.size(); ++i) {
      sid[i] = static_cast<uint32_t>(shard_of(keys[i].value()));
      ++start[sid[i] + 1];
    }
  };
  if (IsPowerOfTwo(num_shards)) {
    const uint64_t mask = num_shards - 1;
    count([mask](uint64_t mix) { return mix & mask; });
  } else {
    count([num_shards](uint64_t mix) { return mix % num_shards; });
  }
  for (size_t s = 0; s < num_shards; ++s) start[s + 1] += start[s];
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t pos = start[sid[i]]++;
    sorted[pos] = keys[i];
    src[pos] = i;
  }
  // The scatter advanced every cursor to its successor's offset; shift
  // back in place instead of keeping a second cursor array.
  for (size_t s = num_shards; s > 0; --s) start[s] = start[s - 1];
  start[0] = 0;
}

int SaturationConfig::GenerationsForFprBudget(double per_generation_fpr,
                                              double fpr_budget) {
  if (per_generation_fpr <= 0 || fpr_budget <= 0) return 1;
  return std::max(1, static_cast<int>(fpr_budget / per_generation_fpr));
}

class ShardedFilter::WriteLock {
 public:
  // Only a shard that publishes a generation can have unlocked readers,
  // and a live shard never starts publishing (Publish runs on fresh
  // shards only), so a section that starts unpublished skips the counter.
  explicit WriteLock(Shard& shard)
      : shard_(shard),
        lock_(shard.mutex),
        published_(shard.published.load(std::memory_order_relaxed) !=
                   nullptr) {
    // Odd before the first mutation. Relaxed suffices: every store an
    // unlocked reader loads is a release store, which carries this one
    // to any reader that sees it.
    if (published_) Bump(std::memory_order_relaxed);
  }
  ~WriteLock() {
    if (!published_) return;
    // Chaining a generation ends the publication; nothing in a section
    // starts one.
    if (shard_.gens.size() != 1) {
      shard_.published.store(nullptr, std::memory_order_release);
    }
    Bump(std::memory_order_release);
  }
  WriteLock(const WriteLock&) = delete;
  WriteLock& operator=(const WriteLock&) = delete;

 private:
  void Bump(std::memory_order order) {
    shard_.seq.store(shard_.seq.load(std::memory_order_relaxed) + 1, order);
  }

  Shard& shard_;
  std::unique_lock<WriterPreferringMutex> lock_;
  const bool published_;
};

void ShardedFilter::Publish(Shard& shard) {
  // Chained shards probe several generations, and tracked ones score the
  // FPR estimator under the lock: both keep locking, as do families that
  // cannot probe beside a writer. Whether a family answers does not
  // depend on the key, so one probe asks.
  const Filter& gen = *shard.gens.front();
  const bool unlocked =
      shard.tracking == nullptr && shard.gens.size() == 1 &&
      gen.SpeculativeContains(HashedKey(uint64_t{0})).has_value();
  shard.published.store(unlocked ? &gen : nullptr, std::memory_order_release);
}

std::unique_ptr<ShardedFilter::Shard> ShardedFilter::MakeShard() const {
  auto shard = std::make_unique<Shard>();
  shard->gens.push_back(factory_(per_shard_capacity_));
  // Quarantine rebuilds and snapshot loads create shards after a sink may
  // have been attached; keep them reporting.
  shard->gens.back()->AttachMetricsSink(sink_);
  SetNewestCapacity(*shard, per_shard_capacity_);
  // A freshly built shard is empty, so its (empty) journal is a complete
  // op history — quarantine rebuilds stay migratable.
  if (journal_cap_ > 0) shard->tracking = std::make_unique<Tracking>();
  Publish(*shard);
  return shard;
}

ShardedFilter::ShardedFilter(uint64_t expected_keys, int num_shards,
                             ShardFactory factory,
                             const SaturationConfig& config,
                             size_t journal_cap)
    : factory_(std::move(factory)), config_(config), journal_cap_(journal_cap) {
  shards_.reserve(num_shards);
  per_shard_capacity_ =
      expected_keys / num_shards + expected_keys / (num_shards * 4) + 16;
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(MakeShard());
  }
  factory_tag_ = shards_.front()->gens.front()->Name();
}

size_t ShardedFilter::ShardOf(HashedKey key) const {
  // Routing slices the canonical mix directly — zero extra hashing. The
  // bit-usage contract (core/key.h) keeps this sound: families only ever
  // consume Derive(stream) values, never value() itself, so shard
  // selection cannot bias any family's fingerprint distribution. The
  // mask is `% n` for a power-of-two n, without the divide.
  const size_t n = shards_.size();
  return static_cast<size_t>(IsPowerOfTwo(n) ? key.value() & (n - 1)
                                             : key.value() % n);
}

void ShardedFilter::SetNewestCapacity(Shard& shard, uint64_t capacity) const {
  shard.newest_capacity = capacity;
  shard.next_capacity = std::max<uint64_t>(1, capacity * kGenerationGrowth);
}

Filter& ShardedFilter::AddGenerationLocked(Shard& shard) {
  shard.gens.push_back(FactoryFor(shard)(shard.next_capacity));
  shard.gens.back()->AttachMetricsSink(sink_);
  if (sink_ != nullptr) sink_->OnExpansion();
  SetNewestCapacity(shard, shard.next_capacity);
  return *shard.gens.back();
}

void ShardedFilter::AttachMetricsSink(MetricsSink* sink) {
  Filter::AttachMetricsSink(sink);
  for (const auto& shard : shards_) {
    WriteLock lock(*shard);
    for (const auto& gen : shard->gens) gen->AttachMetricsSink(sink);
  }
}

InsertOutcome ShardedFilter::InsertIntoShardLocked(Shard& shard,
                                                   HashedKey key) {
  const InsertOutcome out = InsertPolicyLocked(shard, key);
  if (Accepted(out)) JournalLocked(shard, key, /*erase=*/false);
  return out;
}

void ShardedFilter::JournalLocked(Shard& shard, HashedKey key, bool erase) {
  if (shard.tracking == nullptr) return;
  Tracking& t = *shard.tracking;
  if (!t.journal_broken) {
    if (t.journal.size() >= journal_cap_) {
      // Over the cap the journal can no longer claim to be the full
      // history; serving continues, migration of this shard is refused.
      t.journal_broken = true;
    } else {
      t.journal.push_back({key.value(), static_cast<uint8_t>(erase)});
    }
  }
  if (ObservedFprEstimator::InDomain(key)) {
    if (erase) {
      t.fpr.RecordErase(key);
    } else {
      t.fpr.RecordInsert(key);
    }
  }
}

InsertOutcome ShardedFilter::InsertPolicyLocked(Shard& shard, HashedKey key) {
  Filter& cur = *shard.gens.back();
  const bool saturated = cur.LoadFactor() >= config_.load_threshold;
  if (!saturated && cur.Insert(key)) {
    ++shard.accepted;
    return InsertOutcome::kAccepted;
  }
  // Either the threshold tripped or the family refused early (e.g. a
  // cuckoo kick failure below nominal load) — degrade per policy.
  switch (config_.policy) {
    case SaturationPolicy::kReject:
      ++shard.rejected;
      return InsertOutcome::kRejectedFull;
    case SaturationPolicy::kChain:
      if (static_cast<int>(shard.gens.size()) < config_.max_generations) {
        if (AddGenerationLocked(shard).Insert(key)) {
          ++shard.expanded;
          return InsertOutcome::kExpanded;
        }
        ++shard.rejected;
        return InsertOutcome::kRejectedFull;
      }
      // Generation budget exhausted: squeeze the newest generation past
      // the threshold (its own hard limit still applies) rather than
      // reject outright. Only worth attempting if we haven't already.
      if (saturated && cur.Insert(key)) {
        ++shard.accepted;
        return InsertOutcome::kAccepted;
      }
      ++shard.rejected;
      return InsertOutcome::kRejectedFull;
    case SaturationPolicy::kExpandInPlace:
      // Natively expanding families restructure inside Insert; all we add
      // is the honest status. A second attempt after a sub-threshold
      // failure is safe: a failed Insert left no trace of the key.
      if (cur.Insert(key)) {
        ++shard.expanded;
        return InsertOutcome::kExpanded;
      }
      ++shard.rejected;
      return InsertOutcome::kRejectedFull;
  }
  ++shard.rejected;
  return InsertOutcome::kRejectedFull;  // Unreachable; placates compilers.
}

InsertOutcome ShardedFilter::InsertWithStatus(HashedKey key) {
  Shard& shard = *shards_[ShardOf(key)];
  WriteLock lock(shard);
  return InsertIntoShardLocked(shard, key);
}

bool ShardedFilter::Insert(HashedKey key) {
  return Accepted(InsertWithStatus(key));
}

bool ShardedFilter::Contains(HashedKey key) const {
  const Shard& shard = *shards_[ShardOf(key)];
  // The seqlock read: probe the published generation without writing
  // shared memory, and keep the answer only if the counter read the same
  // even value on both sides; an unpublished shard goes to the lock. The
  // first load's acquire orders the probe after the last writer's
  // closing release store. The probe's loads are acquire loads, so the
  // second counter load cannot move above them; and a probe that read
  // any store of a later writer also sees that writer's odd store, so it
  // reads a changed counter.
  for (int attempt = 0; attempt < kUnlockedAttempts; ++attempt) {
    const uint64_t seq = shard.seq.load(std::memory_order_acquire);
    if (seq & 1) continue;
    const Filter* gen = shard.published.load(std::memory_order_acquire);
    if (gen == nullptr) break;
    const std::optional<bool> hit = gen->SpeculativeContains(key);
    if (!hit.has_value()) break;
    if (shard.seq.load(std::memory_order_relaxed) == seq) return *hit;
  }
  std::shared_lock lock(shard.mutex);
  bool hit = false;
  for (const auto& gen : shard.gens) {
    if (gen->Contains(key)) {
      hit = true;
      break;
    }
  }
  if (shard.tracking && ObservedFprEstimator::InDomain(key)) {
    shard.tracking->fpr.RecordLookup(key, hit);
  }
  return hit;
}

template <typename Body>
void ShardedFilter::ForEachShardBatch(std::span<const HashedKey> keys,
                                      BatchKind kind, Body&& body) const {
  const bool answers = kind == BatchKind::kLookup;
  const size_t num_shards = shards_.size();
  HashedKey sorted_stack[kStackKeys];
  size_t src_stack[kStackKeys];
  uint8_t res_stack[kStackKeys];
  size_t start_stack[kStackShards];
  std::vector<HashedKey> sorted_heap;
  std::vector<size_t> src_heap;
  std::vector<uint8_t> res_heap;
  std::vector<size_t> start_heap;
  HashedKey* sorted = sorted_stack;
  size_t* src = src_stack;
  uint8_t* res = res_stack;
  size_t* start = start_stack;
  if (keys.size() > kStackKeys) {
    sorted_heap.resize(keys.size());
    src_heap.resize(keys.size());
    // Write batches need no answer bytes (their body gets null); a large
    // one, such as a bulk preload, would otherwise pay a byte per key.
    if (answers) res_heap.resize(keys.size());
    sorted = sorted_heap.data();
    src = src_heap.data();
    res = res_heap.data();
  }
  if (num_shards + 1 > kStackShards) {
    start_heap.resize(num_shards + 1);
    start = start_heap.data();
  }
  GroupByShard(keys, num_shards, sorted, src, start);
  // Opposite sweeps: a lookup batch that meets a write batch passes it at
  // one shard, so it waits behind at most one exclusive section instead
  // of trailing the write through every shard. Batches of one kind sweep
  // alike, and each batch holds one shard lock at a time, so no lock
  // order between shards arises.
  for (size_t i = 0; i < num_shards; ++i) {
    const size_t s = answers ? i : num_shards - 1 - i;
    const size_t b = start[s];
    const size_t e = start[s + 1];
    if (b == e) continue;
    body(*shards_[s], std::span<const HashedKey>(sorted + b, e - b), src + b,
         answers ? res + b : nullptr);
  }
}

void ShardedFilter::ContainsMany(std::span<const HashedKey> keys,
                                 uint8_t* out) const {
  // Passthrough, here and in every write path: a batch shallower than ~2
  // keys per shard can't feed any shard's prefetch pipeline — grouping
  // would add the sort and scatter for nothing — so it routes through
  // per-key dispatch.
  if (keys.size() < shards_.size() * 2) {
    for (size_t i = 0; i < keys.size(); ++i) {
      out[i] = Contains(keys[i]) ? 1 : 0;
    }
    return;
  }
  std::vector<uint8_t> gen_out;  // Only sized when a shard has chained.
  const auto probe = [&](Shard& shard, std::span<const HashedKey> sub,
                         const size_t* src, uint8_t* res) {
    {
      std::shared_lock lock(shard.mutex);
      // Single generation (the common case) writes results directly;
      // chained shards OR the per-generation answers together.
      shard.gens.front()->ContainsMany(sub, res);
      if (shard.gens.size() > 1) {
        gen_out.resize(sub.size());
        for (size_t g = 1; g < shard.gens.size(); ++g) {
          shard.gens[g]->ContainsMany(sub, gen_out.data());
          for (size_t j = 0; j < sub.size(); ++j) res[j] |= gen_out[j];
        }
      }
      if (shard.tracking != nullptr) {
        // Strided like InstrumentedFilter's batch path: scoring every
        // in-domain key would funnel 1/64th of the batch through the
        // estimator mutex while the shard lock is held.
        for (size_t j = 0; j < sub.size(); j += 16) {
          if (ObservedFprEstimator::InDomain(sub[j])) {
            shard.tracking->fpr.RecordLookup(sub[j], res[j] != 0);
          }
        }
      }
    }
    for (size_t j = 0; j < sub.size(); ++j) out[src[j]] = res[j];
  };
  ForEachShardBatch(keys, BatchKind::kLookup, probe);
}

size_t ShardedFilter::InsertMany(std::span<const HashedKey> keys) {
  size_t inserted = 0;
  if (keys.size() < shards_.size() * 2) {
    for (HashedKey key : keys) inserted += Insert(key);
    return inserted;
  }
  const auto insert = [&](Shard& shard, std::span<const HashedKey> sub,
                          const size_t*, uint8_t*) {
    WriteLock lock(shard);
    Filter& cur = *shard.gens.back();
    // Fast path: if the whole sub-batch fits under the threshold, hand it
    // to the newest generation's prefetch-pipelined InsertMany. The
    // headroom estimate is conservative (batch over built capacity), so
    // a family shouldn't hit its hard limit inside the batch; if it still
    // refuses some keys the returned count stays truthful. Journaling
    // shards never take it: the count-only fast path cannot attribute a
    // partial batch to keys, and a journal recording a key the family
    // refused would replay a phantom insert.
    const double headroom =
        config_.load_threshold - cur.LoadFactor() -
        static_cast<double>(sub.size()) / shard.newest_capacity;
    if (shard.tracking == nullptr && headroom > 0) {
      const size_t n = cur.InsertMany(sub);
      shard.accepted += n;
      shard.rejected += sub.size() - n;
      inserted += n;
      return;
    }
    // Per-key policy path (chaining mid-batch is fine).
    for (HashedKey key : sub) {
      inserted += Accepted(InsertIntoShardLocked(shard, key));
    }
  };
  ForEachShardBatch(keys, BatchKind::kWrite, insert);
  return inserted;
}

void ShardedFilter::InsertManyWithStatus(std::span<const HashedKey> keys,
                                         InsertOutcome* out) {
  if (keys.size() < shards_.size() * 2) {
    for (size_t i = 0; i < keys.size(); ++i) {
      out[i] = InsertWithStatus(keys[i]);
    }
    return;
  }
  const auto insert = [&](Shard& shard, std::span<const HashedKey> sub,
                          const size_t* src, uint8_t*) {
    WriteLock lock(shard);
    // Always the per-key policy path: the InsertMany fast path returns
    // only a count, which cannot be attributed to keys when a family
    // refuses some of a sub-batch — and guessing would ack a key that
    // was never stored.
    for (size_t j = 0; j < sub.size(); ++j) {
      out[src[j]] = InsertIntoShardLocked(shard, sub[j]);
    }
  };
  ForEachShardBatch(keys, BatchKind::kWrite, insert);
}

bool ShardedFilter::EraseLocked(Shard& shard, HashedKey key) {
  // Newest first: recent inserts are the likeliest erase targets.
  for (auto it = shard.gens.rbegin(); it != shard.gens.rend(); ++it) {
    if ((*it)->Erase(key)) {
      JournalLocked(shard, key, /*erase=*/true);
      return true;
    }
  }
  return false;
}

bool ShardedFilter::Erase(HashedKey key) {
  Shard& shard = *shards_[ShardOf(key)];
  WriteLock lock(shard);
  return EraseLocked(shard, key);
}

void ShardedFilter::EraseMany(std::span<const HashedKey> keys, uint8_t* out) {
  if (keys.size() < shards_.size() * 2) {
    Filter::EraseMany(keys, out);
    return;
  }
  const auto erase = [&](Shard& shard, std::span<const HashedKey> sub,
                         const size_t* src, uint8_t*) {
    WriteLock lock(shard);
    for (size_t j = 0; j < sub.size(); ++j) {
      out[src[j]] = EraseLocked(shard, sub[j]) ? 1 : 0;
    }
  };
  ForEachShardBatch(keys, BatchKind::kWrite, erase);
}

uint64_t ShardedFilter::Count(HashedKey key) const {
  const Shard& shard = *shards_[ShardOf(key)];
  std::shared_lock lock(shard.mutex);
  uint64_t count = 0;
  for (const auto& gen : shard.gens) count += gen->Count(key);
  return count;
}

size_t ShardedFilter::SpaceBits() const {
  size_t bits = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    for (const auto& gen : shard->gens) bits += gen->SpaceBits();
  }
  return bits;
}

uint64_t ShardedFilter::NumKeys() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    for (const auto& gen : shard->gens) n += gen->NumKeys();
  }
  return n;
}

double ShardedFilter::LoadFactor() const {
  double max_load = 0.0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    max_load = std::max(max_load, shard->gens.back()->LoadFactor());
  }
  return max_load;
}

std::vector<ShardedFilter::ShardStats> ShardedFilter::Stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    ShardStats s;
    for (const auto& gen : shard->gens) s.num_keys += gen->NumKeys();
    s.load_factor = shard->gens.back()->LoadFactor();
    s.generations = shard->gens.size();
    s.accepted = shard->accepted;
    s.expanded = shard->expanded;
    s.rejected = shard->rejected;
    s.family = std::string(shard->gens.back()->Name());
    s.migrations = shard->migrations;
    if (shard->tracking != nullptr) {
      const ObservedFprEstimator::Snapshot f = shard->tracking->fpr.Snap();
      s.observed_fpr = f.observed_fpr;
      s.fpr_ci_low = f.ci_low;
      s.fpr_ci_high = f.ci_high;
      s.fpr_negative_lookups = f.negative_lookups;
      s.fpr_repeated_keys = f.fp_repeated_keys;
    }
    const bool can_chain =
        config_.policy == SaturationPolicy::kChain &&
        static_cast<int>(shard->gens.size()) < config_.max_generations;
    s.saturated = s.load_factor >= config_.load_threshold && !can_chain &&
                  config_.policy != SaturationPolicy::kExpandInPlace;
    stats.push_back(s);
  }
  return stats;
}

size_t ShardedFilter::HottestOf(std::span<const ShardStats> stats) {
  size_t hottest = 0;
  for (size_t i = 1; i < stats.size(); ++i) {
    if (stats[i].num_keys > stats[hottest].num_keys) hottest = i;
  }
  return hottest;
}

uint64_t ShardedFilter::TotalRejected() const {
  uint64_t rejected = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    rejected += shard->rejected;
  }
  return rejected;
}

uint64_t ShardedFilter::TotalMigrations() const {
  uint64_t migrations = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    migrations += shard->migrations;
  }
  return migrations;
}

ShardedFilter::MigrationReport ShardedFilter::MigrateShard(
    size_t shard_idx, ShardFactory successor_factory) {
  // Default successor builder: construct empty via the factory and replay
  // the snapshot ops in journal order.
  ShardFactory factory = successor_factory;
  return MigrateShard(
      shard_idx,
      [factory](std::span<const FilterJournalOp> ops,
                uint64_t capacity) -> std::unique_ptr<Filter> {
        std::unique_ptr<Filter> successor = factory(capacity);
        if (!successor || !Replay(*successor, ops)) return nullptr;
        return successor;
      },
      std::move(successor_factory));
}

ShardedFilter::MigrationReport ShardedFilter::MigrateShard(
    size_t shard_idx, SuccessorBuilder build, ShardFactory successor_factory) {
  MigrationReport report;
  if (shard_idx >= shards_.size()) {
    report.error = "shard index out of range";
    return report;
  }
  Shard& shard = *shards_[shard_idx];
  auto fail = [&](std::string error) {
    WriteLock lock(shard);
    shard.migrating = false;
    report.error = std::move(error);
    return report;
  };

  // Phase A — snapshot the journal under the lock. The copy is the whole
  // pause writers see at this point; serving resumes immediately.
  std::vector<FilterJournalOp> snapshot_ops;
  {
    WriteLock lock(shard);
    if (shard.tracking == nullptr) {
      report.error = "migration not enabled for this shard";
      return report;
    }
    if (shard.tracking->journal_broken) {
      report.error = "journal broken (overflowed its cap)";
      return report;
    }
    if (shard.migrating) {
      report.error = "migration already in progress";
      return report;
    }
    shard.migrating = true;
    snapshot_ops = shard.tracking->journal;
  }
  report.snapshot_ops = snapshot_ops.size();
  int64_t live = 0;
  for (const FilterJournalOp& op : snapshot_ops) live += op.erase ? -1 : 1;
  live = std::max<int64_t>(live, 0);
  const uint64_t capacity = std::max<uint64_t>(
      per_shard_capacity_,
      static_cast<uint64_t>(live) + static_cast<uint64_t>(live) / 2 + 16);

  // Phase B — build the successor unlocked; reads and writes keep
  // flowing through the old generations, writes also land in the journal.
  std::unique_ptr<Filter> successor = build(
      std::span<const FilterJournalOp>(snapshot_ops), capacity);
  if (!successor) {
    return fail("successor build failed (builder refused a snapshot op)");
  }

  // Phase C — catch-up rounds: drain the ops that landed during the
  // build, reading the tail under a shared lock, replaying unlocked.
  size_t cursor = snapshot_ops.size();
  // Why the journal past `cursor` cannot be drained, or null. Requires
  // the shard lock.
  const auto backlog_error = [&]() -> const char* {
    if (shard.tracking->journal_broken) {
      return "journal broke during migration";
    }
    if (shard.tracking->journal.size() - cursor > kReplayCap) {
      return "replay backlog exceeded the replay cap";
    }
    return nullptr;
  };
  std::vector<FilterJournalOp> tail;
  for (int round = 0; round < kMaxCatchupRounds; ++round) {
    const char* error;
    {
      std::shared_lock lock(shard.mutex);
      error = backlog_error();
      if (error == nullptr) {
        const std::vector<FilterJournalOp>& journal =
            shard.tracking->journal;
        tail.assign(journal.begin() + static_cast<ptrdiff_t>(cursor),
                    journal.end());
      }
    }
    if (error != nullptr) return fail(error);
    if (tail.size() <= kFinalDrainTarget) break;
    if (!Replay(*successor, tail)) {
      return fail("successor rejected a replayed op");
    }
    cursor += tail.size();
    report.replayed_ops += tail.size();
  }

  // Final drain and swap under the exclusive lock — the migration pause.
  const uint64_t pause_start = MonotonicNanos();
  {
    WriteLock lock(shard);
    const char* error = backlog_error();
    Tracking& t = *shard.tracking;
    const std::span<const FilterJournalOp> journal(t.journal);
    if (error == nullptr && !Replay(*successor, journal.subspan(cursor))) {
      error = "successor rejected a replayed op";
    }
    if (error != nullptr) {
      shard.migrating = false;
      report.error = error;
      return report;
    }
    report.replayed_ops += t.journal.size() - cursor;
    successor->AttachMetricsSink(sink_);
    report.to_family = std::string(successor->Name());
    // A tracked shard never published, so no unlocked reader can be
    // probing the generations this swap frees.
    shard.gens.clear();
    shard.gens.push_back(std::move(successor));
    SetNewestCapacity(shard, capacity);
    if (successor_factory) shard.factory = std::move(successor_factory);
    // The net multiset of live ops replaces the op history: membership
    // families ignore multiplicity and order, counting families keep
    // their counts, and journal length now tracks live keys, not traffic.
    const std::unordered_map<uint64_t, int64_t> net =
        NetJournalCounts(t.journal);
    t.journal.clear();
    for (const auto& [mix, count] : net) {
      for (int64_t i = 0; i < count; ++i) t.journal.push_back({mix, 0});
    }
    t.fpr.ResetObservations();
    shard.migrating = false;
    ++shard.migrations;
  }
  report.pause_ns = MonotonicNanos() - pause_start;
  report.ok = true;
  return report;
}

bool ShardedFilter::Save(std::ostream& os) const {
  if (shards_.empty()) return false;
  // Frame every generation independently first; the directory needs the
  // blob lengths, and each blob keeps its own checksum so corruption
  // stays contained. Serializing under per-shard reader locks makes Save
  // safe against concurrent inserts: the result is a per-shard-consistent
  // cut (shard i may be older than shard j, each internally intact).
  struct GenEntry {
    std::string tag;
    std::string blob;
  };
  std::vector<std::vector<GenEntry>> blobs(shards_.size());
  std::vector<uint64_t> newest_caps(shards_.size());
  std::vector<uint64_t> next_caps(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock lock(shards_[s]->mutex);
    newest_caps[s] = shards_[s]->newest_capacity;
    next_caps[s] = shards_[s]->next_capacity;
    for (const auto& gen : shards_[s]->gens) {
      std::ostringstream ss;
      if (!gen->Save(ss)) return false;
      blobs[s].push_back({std::string(gen->Name()), std::move(ss).str()});
    }
  }
  // The directory leads with the *factory* family's tag (not a
  // generation's): LoadWithReport checks it against the loading filter's,
  // and filter_io's tag dispatcher rebuilds a matching factory from it.
  // The per-generation tags that follow carry the real (possibly
  // migrated) families.
  std::ostringstream dir;
  WriteU64(dir, kShardedDirVersion);
  WriteU64(dir, per_shard_capacity_);
  WriteU64(dir, factory_tag_.size());
  dir.write(factory_tag_.data(),
            static_cast<std::streamsize>(factory_tag_.size()));
  WriteU64(dir, blobs.size());
  for (size_t s = 0; s < blobs.size(); ++s) {
    WriteU64(dir, newest_caps[s]);
    WriteU64(dir, next_caps[s]);
    WriteU64(dir, blobs[s].size());
    for (const GenEntry& gen : blobs[s]) {
      WriteU64(dir, gen.tag.size());
      dir.write(gen.tag.data(), static_cast<std::streamsize>(gen.tag.size()));
      WriteU64(dir, gen.blob.size());
    }
  }
  if (!WriteSnapshotFrame(os, Name(), std::move(dir).str())) return false;
  for (const auto& shard_blobs : blobs) {
    for (const GenEntry& gen : shard_blobs) {
      os.write(gen.blob.data(),
               static_cast<std::streamsize>(gen.blob.size()));
    }
  }
  return os.good();
}

bool ShardedFilter::Load(std::istream& is) {
  LoadReport report;
  return LoadWithReport(is, &report);
}

bool ShardedFilter::LoadWithReport(std::istream& is, LoadReport* report) {
  *report = LoadReport{};
  std::string tag;
  std::string directory;
  if (!ReadSnapshotFrame(is, &tag, &directory) || tag != Name()) {
    return false;
  }
  std::istringstream dir(directory);
  uint64_t version;
  uint64_t capacity;
  uint64_t tag_len;
  std::string factory_tag;
  uint64_t count;
  if (!ReadU64(dir, &version) || version != kShardedDirVersion ||
      !ReadU64Capped(dir, &capacity, kMaxSnapshotElements) ||
      !ReadU64Capped(dir, &tag_len, kMaxSnapshotTagBytes) ||
      !ReadBytes(dir, &factory_tag, tag_len) ||
      !ReadU64Capped(dir, &count, uint64_t{1} << 20) || count == 0) {
    return false;
  }
  struct GenMeta {
    std::string tag;
    uint64_t blob_len = 0;
  };
  struct ShardMeta {
    uint64_t newest_capacity = 0;
    uint64_t next_capacity = 0;
    std::vector<GenMeta> gens;
  };
  std::vector<ShardMeta> meta(count);
  for (ShardMeta& sm : meta) {
    uint64_t gens;
    if (!ReadU64Capped(dir, &sm.newest_capacity, kMaxSnapshotElements) ||
        !ReadU64Capped(dir, &sm.next_capacity, kMaxSnapshotElements) ||
        !ReadU64Capped(dir, &gens, kMaxSnapshotGenerations) || gens == 0) {
      return false;
    }
    sm.gens.resize(gens);
    for (GenMeta& gm : sm.gens) {
      uint64_t gen_tag_len;
      if (!ReadU64Capped(dir, &gen_tag_len, kMaxSnapshotTagBytes) ||
          !ReadBytes(dir, &gm.tag, gen_tag_len) ||
          !ReadU64Capped(dir, &gm.blob_len, kMaxSnapshotPayloadBytes)) {
        return false;
      }
    }
  }
  // The factory must produce the family the snapshot's directory names;
  // otherwise every factory-tagged generation would quarantine and the
  // caller would silently get an empty filter. Generations with *other*
  // tags (shards migrated to a new family) construct through the
  // injectable TagBuilder; without one, those shards quarantine.
  if (factory_tag != factory_tag_) return false;
  // Directory verified — from here on every defect is per-shard and
  // handled by quarantine, so committing the capacity now is safe.
  per_shard_capacity_ = capacity;
  auto build_for_tag = [&](const std::string& gen_tag,
                           uint64_t gen_capacity) -> std::unique_ptr<Filter> {
    if (gen_tag == factory_tag_) return factory_(gen_capacity);
    if (tag_builder_) return tag_builder_(gen_tag, gen_capacity);
    return nullptr;
  };
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(count);
  for (uint64_t s = 0; s < count; ++s) {
    // A loaded shard carries keys with no op history: it stays untracked
    // (no journal, no FPR scoring) for its life.
    auto shard = std::make_unique<Shard>();
    bool healthy = true;
    for (size_t g = 0; g < meta[s].gens.size(); ++g) {
      std::string blob;
      // Keep consuming blobs even after a corrupt one so later shards
      // stay aligned in the stream.
      const bool have_blob = ReadBytes(is, &blob, meta[s].gens[g].blob_len);
      if (!healthy) continue;
      std::unique_ptr<Filter> gen =
          build_for_tag(meta[s].gens[g].tag, meta[s].newest_capacity);
      if (gen == nullptr) {
        healthy = false;
        continue;
      }
      gen->AttachMetricsSink(sink_);
      std::istringstream bs(blob);
      if (have_blob && gen->Load(bs)) {
        shard->gens.push_back(std::move(gen));
      } else {
        healthy = false;
      }
    }
    if (healthy) {
      shard->newest_capacity = meta[s].newest_capacity;
      shard->next_capacity = std::max<uint64_t>(1, meta[s].next_capacity);
      Publish(*shard);
      ++report->healthy_shards;
    } else {
      // Quarantine: any bad generation rebuilds the whole shard empty so
      // a partially corrupt chain can never leak state.
      shard = MakeShard();
      report->quarantined.push_back(static_cast<size_t>(s));
      ++shards_quarantined_total_;
    }
    shards.push_back(std::move(shard));
  }
  report->total_shards = static_cast<size_t>(count);
  shards_ = std::move(shards);
  return true;
}

}  // namespace bbf
