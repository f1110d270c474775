#ifndef BBF_BLOOM_DLEFT_FILTER_H_
#define BBF_BLOOM_DLEFT_FILTER_H_

#include <cstdint>
#include <unordered_map>

#include "core/filter.h"
#include "util/compact_vector.h"

namespace bbf {

/// d-left counting Bloom filter [Bonomi et al., ESA 2006] (§2.6): `d`
/// subtables of buckets, each bucket holding a few (fingerprint, counter)
/// cells. An item goes to its candidate bucket in the least-loaded subtable
/// (leftmost on ties), giving the balanced-allocation space win — generally
/// a factor of two or more over a counting Bloom filter — with one cache
/// line per subtable of data locality.
///
/// Like the original, it is not resizable and its false-positive rate is a
/// function of the fingerprint width and bucket geometry. Overflowing
/// items (all candidate buckets full) go to a small exact side map whose
/// space is charged to SpaceBits().
class DleftCountingFilter : public Filter {
 public:
  /// Geometry: `d` subtables, bucket capacity `cells_per_bucket`,
  /// fingerprints of `fingerprint_bits`, counters of `counter_bits`.
  /// Sized so that expected load is ~75% at `expected_keys` distinct keys.
  explicit DleftCountingFilter(uint64_t expected_keys, int d = 4,
                               int cells_per_bucket = 8,
                               int fingerprint_bits = 12,
                               int counter_bits = 4);

  using Filter::Contains;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override { return Count(key) > 0; }
  bool Erase(HashedKey key) override;
  uint64_t Count(HashedKey key) const override;
  size_t SpaceBits() const override;
  uint64_t NumKeys() const override { return num_keys_; }
  /// Insertions over total cells. Counts multiplicity (duplicates share a
  /// cell), so this slightly overstates occupancy on multisets — the safe
  /// direction for a saturation signal. Overflow-map pressure is the
  /// other saturation symptom; callers can watch overflow_size().
  double LoadFactor() const override {
    return cells_.size() == 0
               ? 1.0
               : static_cast<double>(num_keys_) / cells_.size();
  }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "dleft-counting"; }

  uint64_t overflow_size() const { return overflow_.size(); }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  bool CheckInvariants() const override;

 private:
  struct Cell {
    uint64_t fingerprint = 0;  // 0 means empty.
    uint64_t count = 0;
  };

  uint64_t Fingerprint(HashedKey key) const;
  uint64_t BucketIndex(HashedKey key, int table) const;
  uint64_t CellSlot(int table, uint64_t bucket, int cell) const {
    return (static_cast<uint64_t>(table) * buckets_per_table_ + bucket) *
               cells_per_bucket_ +
           cell;
  }
  Cell GetCell(uint64_t slot) const;
  void PutCell(uint64_t slot, const Cell& cell);
  int BucketLoad(int table, uint64_t bucket) const;

  int d_;
  int cells_per_bucket_;
  int fingerprint_bits_;
  int counter_bits_;
  uint64_t buckets_per_table_;
  CompactVector cells_;  // (fingerprint | counter) packed per cell.
  // Canonical key mix (HashedKey::value) -> count. Exact because the
  // canonical mix is the key identity everywhere past the boundary.
  std::unordered_map<uint64_t, uint64_t> overflow_;
  uint64_t num_keys_ = 0;
};

}  // namespace bbf

#endif  // BBF_BLOOM_DLEFT_FILTER_H_
