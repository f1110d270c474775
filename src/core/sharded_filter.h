#ifndef BBF_CORE_SHARDED_FILTER_H_
#define BBF_CORE_SHARDED_FILTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/filter.h"
#include "core/fpr_estimator.h"
#include "util/shared_mutex.h"

namespace bbf {

/// One acked mutation in a shard's migration journal. Filters cannot
/// enumerate their keys, so online migration (snapshot-drain-replay,
/// DESIGN.md §15) rebuilds a successor by replaying the journal;
/// HashedKey::FromMix(mix) reconstitutes the exact key the families saw.
struct FilterJournalOp {
  uint64_t mix = 0;
  uint8_t erase = 0;  // 0 = insert, 1 = erase.
};

/// Folds journal ops into a net count per mix (an insert +1, an erase
/// -1): the multiset of live keys the ops describe. Migration compacts a
/// shard's journal to it; the stacked successor takes its positives
/// from it.
std::unordered_map<uint64_t, int64_t> NetJournalCounts(
    std::span<const FilterJournalOp> ops);

/// What a shard does once its newest generation crosses the load
/// threshold (DESIGN.md §9). The paper's §2.2 expansion strategies,
/// recast as serving policies.
enum class SaturationPolicy : uint8_t {
  /// Stop admitting: Insert reports kRejectedFull, state is untouched.
  /// For callers that would rather shed load than degrade FPR.
  kReject,
  /// Scalable-Bloom-style chaining: mount a fresh generation behind the
  /// saturated one and insert there. Queries probe every generation, so
  /// each extra generation adds one probe and one generation's FPR —
  /// max_generations is the FPR/latency budget.
  kChain,
  /// Lean on the family's native expansion (taffy, scalable-bloom,
  /// expanding-quotient, chained-quotient): keep inserting into the same
  /// filter and let it restructure itself. Rejects only once the family
  /// itself is exhausted.
  kExpandInPlace,
};

/// Flat counting sort of pre-hashed `keys` by shard, routed as
/// ShardedFilter routes (value() % num_shards, taken by mask when
/// num_shards is a power of two): on return,
/// sorted[start[s]..start[s+1]) holds shard s's keys in batch order and
/// src[p] is the batch position sorted[p] came from (for scattering
/// results back). `sorted` and `src` hold keys.size() entries, `start`
/// num_shards + 1. No per-shard vectors; the shard id is computed once
/// per key, and batches up to 4,096 keys allocate nothing.
void GroupByShard(std::span<const HashedKey> keys, size_t num_shards,
                  HashedKey* sorted, size_t* src, size_t* start);

/// Per-shard degradation knobs for ShardedFilter. Each chained
/// generation is built at twice the capacity of the one before it.
struct SaturationConfig {
  SaturationPolicy policy = SaturationPolicy::kChain;
  /// Newest-generation LoadFactor at which the policy engages. Below the
  /// family's own hard limit so degradation is deliberate, not forced.
  double load_threshold = 0.85;
  /// Hard cap on generations per shard (kChain only). Total shard FPR is
  /// bounded by max_generations * per-generation FPR.
  int max_generations = 4;

  /// Generations affordable under a total FPR budget when every chained
  /// generation is built at `per_generation_fpr` (the additive union
  /// bound on the chain's false-positive probability).
  static int GenerationsForFprBudget(double per_generation_fpr,
                                     double fpr_budget);
};

/// Thread scaling (§1, feature 6): a hash-sharded wrapper that turns any
/// dynamic filter into a concurrent one. Keys partition across S
/// independent shards by hash (value() % S, by mask when S is a power of
/// two); each shard is guarded by its own writer-preferring reader-writer
/// lock, so inserts contend only within a shard — the standard recipe
/// behind concurrent CQF deployments.
///
/// Scalar lookups write no shared memory when they can avoid it: a shard
/// publishes its generation while it has exactly one, tracks no migration
/// journal, and its family answers SpeculativeContains (cuckoo does), and
/// its writers then keep a sequence counter odd while they hold the lock.
/// Contains probes a published generation unlocked and keeps the answer
/// only when the counter read the same even value before and after (a
/// seqlock, DESIGN.md §9); otherwise it takes the shared lock. Batch
/// paths, Count, Save and Stats always lock.
///
/// Overload behaviour: each shard is a chain of generations (usually one).
/// When the newest generation crosses the configured load threshold the
/// shard degrades per SaturationConfig instead of silently returning
/// false; InsertWithStatus reports which path each key took, and Stats()
/// exposes per-shard occupancy so callers can rebalance hot shards.
class ShardedFilter : public Filter {
 public:
  using ShardFactory =
      std::function<std::unique_ptr<Filter>(uint64_t shard_capacity)>;

  /// Journal cap for callers that want migration and have no tighter
  /// bound: 2^22 ops per shard.
  static constexpr size_t kDefaultJournalCap = size_t{1} << 22;

  /// `num_shards` should be a power of two near the expected thread count;
  /// `factory` builds one shard sized for `expected_keys / num_shards`.
  /// Default saturation policy is kChain — the filter keeps serving past
  /// capacity at a bounded FPR cost.
  ///
  /// A nonzero `journal_cap` builds a *tracked* filter (DESIGN.md §15):
  /// every shard journals its acked inserts and erases, so MigrateShard
  /// can rebuild a successor online, and carries an ObservedFprEstimator,
  /// so Stats() grows the observed-FPR column. `journal_cap` bounds one
  /// shard's journal; past it the journal is marked broken and that shard
  /// refuses migration (serving is unaffected). Zero builds untracked
  /// shards, which refuse migration and may serve scalar lookups unlocked.
  ShardedFilter(uint64_t expected_keys, int num_shards, ShardFactory factory,
                const SaturationConfig& config = {}, size_t journal_cap = 0);

  /// Structured insert: kAccepted below the threshold, kExpanded when the
  /// key was only admitted by chaining/expanding a generation,
  /// kRejectedFull when the policy refused it (key NOT queryable).
  InsertOutcome InsertWithStatus(HashedKey key);
  InsertOutcome InsertWithStatus(uint64_t key) {
    return InsertWithStatus(HashedKey(key));
  }
  InsertOutcome InsertWithStatus(std::string_view key) {
    return InsertWithStatus(HashedKey(key));
  }

  /// Batched structured insert — the serving-layer twin of InsertMany
  /// (DESIGN.md §14): writes InsertWithStatus's outcome for keys[i] to
  /// out[i], equivalent to calling InsertWithStatus in order. Keys are
  /// grouped by shard first so each shard lock is taken once per batch
  /// (not once per key); within a shard the per-key policy path runs so
  /// every outcome is exact — a network server acks precisely the keys
  /// that are queryable, which the count-only InsertMany cannot promise
  /// when a family refuses keys mid-batch.
  void InsertManyWithStatus(std::span<const HashedKey> keys,
                            InsertOutcome* out);

  using Filter::Contains;
  using Filter::ContainsMany;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;
  using Filter::InsertMany;

  /// Accepted(InsertWithStatus(key)) — kept for the Filter contract.
  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  /// Batch paths group pre-hashed keys by shard first, so a batch of B
  /// keys is hashed exactly once (by the Filter wrappers), takes each
  /// shard lock at most once (~num_shards acquisitions instead of B) and
  /// hands every shard one contiguous sub-batch — which flows into the
  /// shard filter's own prefetch-pipelined batch path. Sub-batches that
  /// fit under the load threshold go straight to the newest generation's
  /// InsertMany; near saturation the per-key policy path takes over.
  /// Lookup batches visit the shards upward and write batches (the
  /// inserts and EraseMany) downward, so a lookup batch that meets a
  /// write batch waits behind at most one of its exclusive sections
  /// (DESIGN.md §9).
  void ContainsMany(std::span<const HashedKey> keys,
                    uint8_t* out) const override;
  size_t InsertMany(std::span<const HashedKey> keys) override;
  bool Erase(HashedKey key) override;
  /// One exclusive section per shard; within a shard each key is erased
  /// newest generation first and journaled, exactly as Erase does.
  void EraseMany(std::span<const HashedKey> keys, uint8_t* out) override;
  uint64_t Count(HashedKey key) const override;
  size_t SpaceBits() const override;
  uint64_t NumKeys() const override;
  /// Load of the hottest shard's newest generation — the binding
  /// constraint for admission.
  double LoadFactor() const override;
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "sharded"; }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Propagates the sink to every live generation (under each shard's
  /// exclusive lock) and to generations created later by chaining or
  /// quarantine rebuilds, so family-level events (kick chains, probe
  /// scans) from all shards land in one metrics block. Chaining a
  /// generation additionally reports MetricsSink::OnExpansion.
  void AttachMetricsSink(MetricsSink* sink) override;

  /// Point-in-time occupancy and outcome counters for one shard. Counters
  /// reset on Load (snapshots persist structure, not serving history).
  struct ShardStats {
    uint64_t num_keys = 0;
    double load_factor = 0.0;  // Newest generation.
    size_t generations = 1;
    uint64_t accepted = 0;   // Inserts stored below the threshold.
    uint64_t expanded = 0;   // Inserts that needed expansion/chaining.
    uint64_t rejected = 0;   // Inserts refused (kRejectedFull).
    bool saturated = false;  // At threshold with no expansion headroom.
    /// Newest generation's family tag — shards diverge after migration.
    std::string family;
    uint64_t migrations = 0;  // Completed online migrations of this shard.
    /// Observed-FPR column of a tracked shard: negative = shard not
    /// tracked (the filter was built without a journal cap, or the shard
    /// was loaded from a snapshot). The per-shard twin of HottestShard() —
    /// triage by FPR, not just by load.
    double observed_fpr = -1.0;
    double fpr_ci_low = 0.0;   // 95% Wilson bounds on observed_fpr.
    double fpr_ci_high = 0.0;
    uint64_t fpr_negative_lookups = 0;
    uint64_t fpr_repeated_keys = 0;  // Adversarial-repeat sketch hits.
  };

  /// One entry per shard, each read under that shard's lock.
  std::vector<ShardStats> Stats() const;
  /// Index of the shard holding the most keys — the rebalancing target.
  size_t HottestShard() const { return HottestOf(Stats()); }
  /// Index into `stats` of the first entry holding the most keys.
  static size_t HottestOf(std::span<const ShardStats> stats);
  /// Total inserts refused across all shards since construction/Load.
  uint64_t TotalRejected() const;

  // --- Online migration (DESIGN.md §15) -------------------------------------

  /// What happened during one MigrateShard call.
  struct MigrationReport {
    bool ok = false;
    uint64_t snapshot_ops = 0;  // Journal ops replayed in the build phase.
    uint64_t replayed_ops = 0;  // Ops drained in catch-up + final drain.
    uint64_t pause_ns = 0;      // Exclusive-lock hold for drain-and-swap.
    std::string to_family;      // Name() of the successor filter.
    std::string error;          // Empty iff ok.
  };

  /// Builds a successor filter already containing the journal snapshot.
  /// `ops` is the journal prefix captured at migration start; `capacity`
  /// is a sizing hint (live keys with headroom). Returning nullptr aborts
  /// the migration. The default builder constructs via a ShardFactory and
  /// replays the ops; the Tuner's stacked builder constructs a
  /// learned/stacked front from the ops instead.
  using SuccessorBuilder = std::function<std::unique_ptr<Filter>(
      std::span<const FilterJournalOp> ops, uint64_t capacity)>;

  /// Online snapshot-drain-replay migration of one shard (DESIGN.md §15):
  ///   A. under the shard lock, snapshot the journal (a cheap copy) —
  ///      serving continues immediately;
  ///   B. unlocked, build the successor from the snapshot while writes
  ///      keep landing in the old generations *and* the journal;
  ///   C. drain the journal tail in bounded unlocked rounds, then take
  ///      the lock once for the final drain and the atomic swap — the
  ///      only pause serving ever sees, reported as pause_ns.
  /// On any failure (successor refuses a replay op, a backlog of more
  /// than 2^16 ops) the old generations are untouched and every acked key
  /// is still served: migration is abort-safe by construction. Only a
  /// tracked shard migrates: one a tracked filter built empty, at
  /// construction or in a quarantine rebuild. A shard loaded from a
  /// snapshot is untracked (its keys have no op history) and refuses.
  /// `successor_factory` becomes the shard's factory afterwards, so
  /// chained generations and quarantine rebuilds stay in the new family.
  MigrationReport MigrateShard(size_t shard, ShardFactory successor_factory);
  MigrationReport MigrateShard(size_t shard, SuccessorBuilder build,
                               ShardFactory successor_factory);

  /// Completed migrations across all shards.
  uint64_t TotalMigrations() const;

  /// Sentinel for "no shard qualified".
  static constexpr size_t kNoShard = ~size_t{0};

  /// What happened to each shard during LoadWithReport.
  struct LoadReport {
    size_t total_shards = 0;
    size_t healthy_shards = 0;
    std::vector<size_t> quarantined;  // Shard indices rebuilt empty.
    bool AllHealthy() const { return quarantined.empty(); }
  };

  /// Snapshot layout (v3): one outer frame holding only the shard
  /// directory (layout version, per-shard capacity, the factory family's
  /// tag, shard count, then per shard its capacities and per-generation
  /// (tag, blob length) pairs), followed by every generation's own
  /// independent frame, shard-major. Per-generation tags because shards
  /// diverge by family after migration. Because every generation frame
  /// carries its own checksum, one corrupt blob doesn't poison the rest.
  /// Safe to call concurrently with inserts/queries: each shard is
  /// serialized under its reader lock (the snapshot is a per-shard-
  /// consistent cut, not a global point in time).
  bool Save(std::ostream& os) const override;

  /// Builds an empty filter for a foreign generation tag found in a
  /// snapshot — shards migrated away from the factory family need one.
  /// Installed by the factory/tuning layer (registry-backed); core stays
  /// registry-free. Without a builder, foreign-tag shards quarantine.
  using TagBuilder = std::function<std::unique_ptr<Filter>(
      std::string_view tag, uint64_t capacity)>;
  void SetSnapshotTagBuilder(TagBuilder builder) {
    tag_builder_ = std::move(builder);
  }

  /// Loads a snapshot written by Save. A shard with any corrupt or
  /// truncated generation frame is *quarantined*: it is rebuilt empty via
  /// the shard factory and listed in the report, while every healthy
  /// shard loads normally. Returns false only when the directory frame
  /// itself is unusable or names another factory family (the filter is
  /// left untouched in that case). Builds one filter per generation it
  /// loads, plus one per quarantined shard. Not thread-safe; callers must
  /// quiesce concurrent readers first.
  bool LoadWithReport(std::istream& is, LoadReport* report);
  bool Load(std::istream& is) override;

  /// Shards quarantined across every LoadWithReport on this object —
  /// monotone (unlike per-call LoadReport), so the obs layer can export
  /// it as a counter.
  uint64_t TotalQuarantinedShards() const { return shards_quarantined_total_; }

 private:
  // The migration seam of one shard: every acked mutation since the shard
  // was empty, and the FPR estimator scored against that ground truth.
  struct Tracking {
    std::vector<FilterJournalOp> journal;
    bool journal_broken = false;  // Overflowed journal_cap; stays serving.
    ObservedFprEstimator fpr;
  };

  struct Shard {
    // The seqlock read path's state, on a cache line of its own so an
    // unlocked lookup shares it with no lock word and no other shard.
    // `published` is gens[0] while the shard is untracked with one
    // generation whose family answers SpeculativeContains, else null;
    // once null it stays null for the life of the Shard. While it is
    // set, `seq` is odd whenever a writer holds `mutex`.
    alignas(64) std::atomic<uint64_t> seq{0};
    std::atomic<const Filter*> published{nullptr};
    // Writer-preferring, so overlapping readers cannot hold off inserts,
    // erases and migration swaps; no path takes it twice on one thread.
    alignas(64) mutable WriterPreferringMutex mutex;
    // Generations, oldest first; inserts target back(). Never empty.
    std::vector<std::unique_ptr<Filter>> gens;
    uint64_t newest_capacity;  // Capacity back() was built with.
    uint64_t next_capacity;    // Capacity for the next chained generation.
    uint64_t accepted = 0;
    uint64_t expanded = 0;
    uint64_t rejected = 0;
    bool migrating = false;  // One migration per shard at a time.
    uint64_t migrations = 0;
    // Post-migration family factory; empty -> the filter-level factory_.
    ShardFactory factory;
    // Present exactly when a tracked filter built this shard empty; set
    // before the shard is shared and kept for its life, so a tracked shard
    // never publishes and an untracked one never migrates.
    std::unique_ptr<Tracking> tracking;
  };

  // A shard's exclusive section: holds its mutex and, on a publishing
  // shard, keeps its counter odd and withdraws the publication when the
  // section chains a generation, before the closing even store.
  class WriteLock;

  // Sets shard.published on a shard no other thread can see yet (built,
  // or loaded).
  static void Publish(Shard& shard);

  size_t ShardOf(HashedKey key) const;
  // What a grouped batch does to its shards. A lookup batch takes each
  // shard's shared lock in ascending shard order and gets a scratch
  // answer byte per key; a write batch takes each exclusive lock in
  // descending order and scatters its own results.
  enum class BatchKind : uint8_t { kLookup, kWrite };
  // Groups a batch by shard and calls body(shard, sub, src, res) once per
  // shard that has keys, in `kind`'s shard order: `sub` is the shard's
  // keys in batch order, src[j] the batch position of sub[j], and res the
  // scratch bytes (null for a write batch). Scratch lives on the stack up
  // to 1,024 keys and 128 shards.
  template <typename Body>
  void ForEachShardBatch(std::span<const HashedKey> keys, BatchKind kind,
                         Body&& body) const;
  // The policy-driven insert path; requires shard.mutex held exclusively.
  InsertOutcome InsertIntoShardLocked(Shard& shard, HashedKey key);
  // InsertIntoShardLocked without the journal/estimator bookkeeping.
  InsertOutcome InsertPolicyLocked(Shard& shard, HashedKey key);
  // Erases `key` from the newest generation that holds it and journals
  // the erase; false when none does. Requires shard.mutex held exclusively.
  bool EraseLocked(Shard& shard, HashedKey key);
  // Records one acked insert or erase in the shard's journal and FPR
  // estimator. Requires the lock.
  void JournalLocked(Shard& shard, HashedKey key, bool erase);
  // Makes `capacity` the newest generation's and grows the next one's.
  void SetNewestCapacity(Shard& shard, uint64_t capacity) const;
  // Chains a fresh generation onto `shard` (kChain). Requires the lock.
  Filter& AddGenerationLocked(Shard& shard);
  // An empty shard of the factory family, tracked when the filter is.
  std::unique_ptr<Shard> MakeShard() const;
  // The factory chained generations of `shard` build from.
  const ShardFactory& FactoryFor(const Shard& shard) const {
    return shard.factory ? shard.factory : factory_;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  ShardFactory factory_;          // Kept for chaining + quarantine rebuilds.
  // Name() of the factory's family, read off the first shard: the
  // directory tag Save writes and LoadWithReport requires.
  std::string factory_tag_;
  uint64_t per_shard_capacity_;   // Capacity each shard was built with.
  SaturationConfig config_;
  uint64_t shards_quarantined_total_ = 0;  // Not reset by Load.
  size_t journal_cap_;  // 0: untracked shards.
  TagBuilder tag_builder_;
};

}  // namespace bbf

#endif  // BBF_CORE_SHARDED_FILTER_H_
