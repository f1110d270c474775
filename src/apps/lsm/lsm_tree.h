#ifndef BBF_APPS_LSM_LSM_TREE_H_
#define BBF_APPS_LSM_LSM_TREE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/lsm/io_model.h"
#include "apps/lsm/manifest.h"
#include "apps/lsm/run.h"
#include "obs/metrics.h"

namespace bbf::lsm {

/// Filter-memory allocation across levels (§3.1).
enum class FilterAllocation {
  kUniform,  // Same bits/key everywhere: expected lookup cost O(eps * L).
  kMonkey,   // Monkey [32]: geometrically lower FPR for smaller levels,
             // sum of FPRs converges -> expected lookup cost O(eps).
};

/// What fronts the mutable memtable level (§2.2). The expandable kinds
/// grow with the memtable and are ADOPTED by the L0 run at flush — the
/// mutable level survives flush cycles without rebuild-from-scratch
/// (the Taffy/Aleph argument for why mutable levels want expandable
/// filters rather than statically-sized blooms).
enum class MemtableFilterKind {
  kNone,   // No memtable filter; L0 runs build theirs at flush.
  kTaffy,  // Quotient table, variable-length fingerprints, doubling.
  kRing,   // Elastic hash ring of fingerprint segments.
};

struct LsmOptions {
  uint64_t memtable_entries = 4096;  // Flush threshold.
  int size_ratio = 4;                // T: level i+1 is T times level i.
  bool tiering = false;              // false = leveling (1 run/level).
  PointFilterKind point_filter = PointFilterKind::kBloom;
  double point_bits_per_key = 10.0;
  RangeFilterKind range_filter = RangeFilterKind::kNone;
  double range_bits_per_key = 14.0;
  FilterAllocation allocation = FilterAllocation::kUniform;
  MemtableFilterKind memtable_filter = MemtableFilterKind::kTaffy;
  /// Directory for the persistent generation store (DESIGN.md §13).
  /// Empty = volatile: the tree lives and dies in memory, exactly the
  /// pre-lifecycle behavior.
  std::string dir;
};

/// What LsmTree::Open found on disk — exported through ObsSnapshot() so
/// recovery health is scrapeable.
struct RecoveryStats {
  uint64_t generations_committed = 0;  // Generation number recovered to.
  uint64_t wal_records_replayed = 0;   // Acked ops replayed from the WAL.
  uint64_t filters_quarantined = 0;    // Corrupt filter frames survived.
  uint64_t filters_rebuilt = 0;        // Quarantined/unpersisted filters
                                       // regenerated from key streams.
  uint64_t manifest_fallbacks = 0;     // Manifests tried and rejected
                                       // before one loaded.
};

/// A miniature LSM-tree storage engine (§3.1): memtable + leveled or
/// tiered sorted runs, each fronted by pluggable point/range filters, over
/// the simulated I/O model. Supports puts, deletes (tombstones), point
/// lookups, and range scans; tracks write amplification and I/O counts so
/// experiments E9 can reproduce the Monkey / range-filter claims.
///
/// With `options.dir` set, every flush/compaction persists a new
/// generation — all new run data + filter snapshots, then a manifest,
/// committed by one atomic CURRENT rename — and every acked Put/Delete is
/// WAL-framed first, so a crash at any instant recovers (via Open) to
/// exactly the old or the new generation plus the acked WAL prefix:
/// never a mix, never a lost acked key.
class LsmTree {
 public:
  /// A volatile tree, or (dir set) a fresh persistent one. For a
  /// directory that may already hold a tree, use Open — this constructor
  /// never reads existing state.
  explicit LsmTree(LsmOptions options, StorageEnv* env = nullptr);

  /// Opens (or creates) the persistent tree in `options.dir`, replaying
  /// the newest committed generation through the filter registry and the
  /// WAL's valid prefix. Degrades rather than fails: a corrupt filter
  /// frame quarantines its run (served filterless, rebuilt at the next
  /// flush); a corrupt CURRENT or manifest falls back to the newest
  /// loadable generation. Returns nullptr only when no generation loads
  /// at all even though manifests exist — the clean-failure path, never
  /// wrong answers. With `options.dir` empty this is just the
  /// constructor.
  static std::unique_ptr<LsmTree> Open(LsmOptions options,
                                       StorageEnv* env = nullptr);

  /// Returns true when the op is acked (its WAL record reached the
  /// kernel, or the tree is volatile): an ack survives a process crash,
  /// not a power loss. A false return still applies the op in memory —
  /// the caller decides whether a lame-duck store is fatal.
  bool Put(uint64_t key, uint64_t value);
  bool Delete(uint64_t key);

  /// Point lookup: newest to oldest. Charges the I/O model.
  std::optional<uint64_t> Get(uint64_t key);

  /// All live key/value pairs in [lo, hi], newest version wins.
  std::vector<std::pair<uint64_t, uint64_t>> Scan(uint64_t lo, uint64_t hi);

  const IoStats& io() const { return io_; }
  void ResetIo() { io_.Reset(); }

  uint64_t TotalEntries() const;
  size_t TotalFilterBits() const;
  int NumLevels() const { return static_cast<int>(levels_.size()); }
  /// Entries written by compactions / entries ingested. Resets across
  /// recovery (neither tally is persisted).
  double WriteAmplification() const {
    return ingested_ == 0
               ? 0.0
               : static_cast<double>(compaction_writes_) / ingested_;
  }

  bool persistent() const { return store_ != nullptr; }
  uint64_t generation() const { return generation_; }
  const RecoveryStats& recovery() const { return recovery_; }
  /// Runs currently serving filterless because of a quarantined frame.
  uint64_t QuarantinedRuns() const;
  const Filter* memtable_filter() const { return memtable_filter_.get(); }

  /// Lifecycle + degraded-mode metrics for MetricsRegistry::Register
  /// (counters are monotone over this object's lifetime).
  obs::MetricsSnapshot ObsSnapshot() const;

 private:
  struct Level {
    std::vector<std::shared_ptr<SortedRun>> runs;  // Newest first.
  };

  bool RecoverOrInit();
  bool LoadGeneration(const ManifestData& m);
  void ReplayWal();
  /// The write path shared by Put and Delete: WAL append, then apply.
  bool LogAndApply(const Entry& e);
  void ApplyWrite(const Entry& e);
  void FlushMemtable();
  void MaybeCompact(size_t level_idx);
  void RebuildMissingFilters();
  void PersistGeneration();
  uint64_t LevelCapacity(size_t level_idx) const;
  double PointBitsForLevel(size_t level_idx) const;
  std::shared_ptr<SortedRun> BuildRun(std::vector<Entry> entries,
                                      size_t level_idx);
  std::unique_ptr<Filter> MakeMemtableFilter() const;

  LsmOptions options_;
  StorageEnv* env_;
  std::unique_ptr<ManifestStore> store_;  // Null = volatile.
  /// The WAL's append handle, opened by the first append after a WAL
  /// replacement and reset before each one (DESIGN.md §13).
  std::unique_ptr<StorageEnv::Appender> wal_;
  std::map<uint64_t, Entry> memtable_;
  /// Expandable filter over the memtable's keys, adopted by the L0 run
  /// at flush. Null when disabled; dropped (and the L0 filter built from
  /// scratch instead) if an insert ever fails.
  std::unique_ptr<Filter> memtable_filter_;
  std::vector<Level> levels_;
  IoStats io_;
  uint64_t ingested_ = 0;
  uint64_t compaction_writes_ = 0;
  uint64_t run_seed_ = 0;
  uint64_t next_run_id_ = 1;
  uint64_t generation_ = 0;
  std::optional<ManifestData> committed_;  // Last committed manifest.
  std::optional<ManifestData> previous_;   // The one before, for GC.
  RecoveryStats recovery_;
  // Monotone lifecycle counters (ObsSnapshot does not reset with io_).
  uint64_t generations_committed_total_ = 0;
  uint64_t persist_failures_total_ = 0;
  uint64_t wal_append_failures_total_ = 0;
  uint64_t filters_rebuilt_total_ = 0;
  uint64_t quarantined_reads_total_ = 0;
};

}  // namespace bbf::lsm

#endif  // BBF_APPS_LSM_LSM_TREE_H_
