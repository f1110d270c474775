#ifndef BBF_APPS_LSM_RUN_H_
#define BBF_APPS_LSM_RUN_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "apps/lsm/io_model.h"
#include "core/filter.h"
#include "range/range_filter.h"

namespace bbf::lsm {

/// One key/value entry in a sorted run; deletes travel as tombstones.
struct Entry {
  uint64_t key;
  uint64_t value;
  bool tombstone = false;
};

/// Which point filter each run carries (§3.1: "as each file is immutable
/// once created, any static filter is applicable in this context").
enum class PointFilterKind {
  kNone,
  kBloom,
  kBlockedBloom,
  kXor,
  kRibbon,
  kCuckoo,
  kQuotient,
};

/// Which range filter each run carries (§2.5). kMemento is the dynamic
/// family (DESIGN.md §16): built online from the key stream, no
/// rebuild-from-scratch needed when a run's keys arrive incrementally.
enum class RangeFilterKind {
  kNone,
  kPrefixBloom,
  kSurf,
  kRosetta,
  kSnarf,
  kGrafite,
  kMemento,
};

/// Builds a fresh point filter over `keys` — the compaction-time rebuild
/// path, also reused when a quarantined run's filter is regenerated from
/// its key stream.
std::unique_ptr<Filter> BuildPointFilter(const std::vector<uint64_t>& keys,
                                         PointFilterKind kind,
                                         double bits_per_key, uint64_t seed);

/// Builds a fresh range filter over `keys` (nullptr for kNone or empty).
std::unique_ptr<RangeFilter> BuildRangeFilter(
    const std::vector<uint64_t>& keys, RangeFilterKind kind,
    double bits_per_key);

/// An immutable sorted run ("file") with optional per-run filters.
class SortedRun {
 public:
  /// Builds from entries sorted by key (newest version per key only),
  /// constructing both filters from the key stream. `id` names the run's
  /// persistent files (0 = never persisted).
  SortedRun(uint64_t id, std::vector<Entry> entries,
            PointFilterKind point_kind, double point_bits_per_key,
            RangeFilterKind range_kind, double range_bits_per_key,
            uint64_t filter_seed);

  /// Flush-adoption path (DESIGN.md §13): the run takes ownership of a
  /// filter that already covers exactly its keys — the memtable's
  /// expandable filter — so the mutable level's flush skips the
  /// rebuild-from-scratch the other constructor performs. The range
  /// filter is still built here (range filters are static-only).
  SortedRun(uint64_t id, std::vector<Entry> entries,
            std::unique_ptr<Filter> adopted_point_filter,
            RangeFilterKind range_kind, double range_bits_per_key);

  /// Recovery path: entries decoded from the run's data frame plus
  /// whatever filters survived their frames. A null filter whose
  /// `quarantined` flag is set serves filterless — every Get pays the
  /// data read — until the next compaction rebuilds it.
  SortedRun(uint64_t id, std::vector<Entry> entries,
            std::unique_ptr<Filter> point_filter, bool point_quarantined,
            std::unique_ptr<RangeFilter> range_filter, bool range_quarantined);

  /// Point lookup. Consults the filter first; a filter miss costs nothing.
  /// Returns the entry (possibly a tombstone) if present.
  std::optional<Entry> Get(uint64_t key, IoStats* io) const;

  /// Appends every live entry in [lo, hi] to `out`, charging page reads.
  /// Consults the range filter first. An empty interval (lo > hi) appends
  /// nothing and charges nothing.
  void Scan(uint64_t lo, uint64_t hi, std::vector<Entry>* out,
            IoStats* io) const;

  uint64_t id() const { return id_; }
  uint64_t size() const { return entries_.size(); }
  uint64_t min_key() const { return entries_.empty() ? 0 : entries_.front().key; }
  uint64_t max_key() const { return entries_.empty() ? 0 : entries_.back().key; }
  const std::vector<Entry>& entries() const { return entries_; }
  /// The run's key stream, for filter rebuilds.
  std::vector<uint64_t> Keys() const;

  const Filter* point_filter() const { return point_filter_.get(); }
  const RangeFilter* range_filter() const { return range_filter_.get(); }
  bool point_quarantined() const { return point_quarantined_; }
  bool range_quarantined() const { return range_quarantined_; }

  /// Replaces a missing/quarantined filter after a rebuild; clears the
  /// quarantine flag and marks the filter un-persisted.
  void ReplacePointFilter(std::unique_ptr<Filter> filter);
  void ReplaceRangeFilter(std::unique_ptr<RangeFilter> filter);

  // Persistence bookkeeping, owned by LsmTree's commit protocol.
  bool data_persisted() const { return data_persisted_; }
  void set_data_persisted() { data_persisted_ = true; }
  bool point_filter_persisted() const { return point_filter_persisted_; }
  void set_point_filter_persisted(bool v) { point_filter_persisted_ = v; }
  bool range_filter_persisted() const { return range_filter_persisted_; }
  void set_range_filter_persisted(bool v) { range_filter_persisted_ = v; }

  /// Writes the run's entries as one checksummed "lsm-run" frame.
  bool SaveData(std::ostream& os) const;
  /// Reads and validates one "lsm-run" frame: checksum, entry count,
  /// strictly increasing keys. Returns false (empty `out`) on any defect.
  static bool LoadData(std::istream& is, std::vector<Entry>* out);

  /// In-memory filter footprint of this run.
  size_t FilterBits() const;

 private:
  uint64_t id_ = 0;
  std::vector<Entry> entries_;
  std::unique_ptr<Filter> point_filter_;
  std::unique_ptr<RangeFilter> range_filter_;
  bool point_quarantined_ = false;
  bool range_quarantined_ = false;
  bool data_persisted_ = false;
  bool point_filter_persisted_ = false;
  bool range_filter_persisted_ = false;
};

/// Reads one range-filter snapshot frame and instantiates the matching
/// family. Only families with snapshot payloads load (currently
/// prefix-bloom and memento); an unknown or corrupt frame returns nullptr
/// and the caller rebuilds from the key stream instead.
std::unique_ptr<RangeFilter> LoadRangeFilterSnapshot(std::istream& is);

}  // namespace bbf::lsm

#endif  // BBF_APPS_LSM_RUN_H_
