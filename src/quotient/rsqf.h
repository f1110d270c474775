#ifndef BBF_QUOTIENT_RSQF_H_
#define BBF_QUOTIENT_RSQF_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "core/filter.h"
#include "util/bit_vector.h"
#include "util/compact_vector.h"

namespace bbf {

/// The rank-and-select quotient-filter substrate [Pandey et al. 2017]:
/// the metadata scheme behind the paper's "quotient filter uses
/// n lg(1/eps) + 2.125n bits" (§2). Instead of the original three bits per
/// slot, each slot carries two: `occupieds` (some key has this quotient)
/// and `runends` (this slot ends a run), tied together by a global
/// bijection — the i-th occupied quotient's run ends at the i-th runend
/// bit. Per-64-slot-block *offsets* make rank/select local, giving the
/// 2 + 64/|block| ≈ 2.125 metadata bits per slot.
///
/// RsqfTable is the substrate itself, generic over the per-slot payload
/// width so two families can share it: `Rsqf` stores bare r-bit remainders
/// (unsorted runs, append at run end), and the Memento range filter
/// (src/range/memento.h) packs `(remainder << m) | memento` and keeps each
/// run sorted, so a run doubles as the sorted memento list of its
/// fingerprint. Runs are kept sorted by the shift-splice variant of the
/// standard RSQF shift insert; lookups scan one run. The table avoids
/// wraparound with a small slack region after the last quotient and uses
/// 16-bit offsets (2 + 0.25 metadata bits/slot) — all documented in
/// DESIGN.md.
class RsqfTable {
 public:
  RsqfTable(int q_bits, int value_bits);

  uint64_t num_quotients() const { return num_quotients_; }
  uint64_t total_slots() const { return total_slots_; }
  int value_bits() const { return value_bits_; }

  /// Inserts `value` into the run of quotient `q`, shifting the cluster
  /// one slot right. With `sorted` the value is spliced at its ordered
  /// position (runs stay nondecreasing); otherwise it is appended at the
  /// run end. Returns false when the slack region is exhausted.
  bool InsertValue(uint64_t q, uint64_t value, bool sorted);

  /// True when the run of `q` holds `value`, scanning backward from the
  /// run end (the classic RSQF probe). Writes the number of slots scanned
  /// to `*probed` when non-null (0 = quotient unoccupied).
  bool ContainsValue(uint64_t q, uint64_t value, uint64_t* probed) const;

  /// Calls `fn(value)` over the run of `q` in storage order (ascending
  /// for sorted runs); stops early when fn returns false. Returns the
  /// number of slots visited (0 = quotient unoccupied).
  template <typename Fn>
  uint64_t ScanRun(uint64_t q, Fn&& fn) const {
    if (!occupieds_.Get(q)) return 0;
    const uint64_t end = RunEndUpTo(q);
    uint64_t scanned = 0;
    for (uint64_t pos = RunStart(q); pos <= end; ++pos) {
      ++scanned;
      if (!fn(values_.Get(pos))) break;
    }
    return scanned;
  }

  /// Calls `fn(q, value)` for every stored value in quotient order (and
  /// storage order within a run) — the resize/rebuild iteration.
  template <typename Fn>
  void ForEachValue(Fn&& fn) const {
    for (uint64_t q = 0; q < num_quotients_; ++q) {
      if (!occupieds_.Get(q)) continue;
      const uint64_t end = RunEndUpTo(q);
      for (uint64_t pos = RunStart(q); pos <= end; ++pos) {
        fn(q, values_.Get(pos));
      }
    }
  }

  /// Doubling: 2^(q+1) quotients of (value_bits-1)-bit values, each
  /// stored value's top bit moving into the quotient's low bit; the bits
  /// below (a Memento's memento among them) ride along. Runs stay sorted.
  /// Returns false (table unchanged) at one-bit values, at 2^38
  /// quotients, or when the slack region runs out.
  bool Double();

  /// 2 metadata bits + `value_bits` per slot, plus 16/64 bits of offset
  /// per block: the "2.125-ish" accounting of the paper.
  size_t SpaceBits() const {
    return total_slots_ * (2 + value_bits_) + offsets_.size() * 16;
  }

  /// Structural self-check, one linear pass that walks the occupied
  /// quotients and the runends in step: the i-th runend closes the i-th
  /// occupied quotient's run, every block offset matches its
  /// recomputation, no run reaches the slack's last slot, the runs cover
  /// `used_slots` slots (any number for kNone) and, with `sorted`, every
  /// run is nondecreasing. Lookups then stay inside the planes. Silent.
  bool CheckInvariants(uint64_t used_slots = kNone, bool sorted = false) const;

  /// Serializes the four structural members (occupieds, runends, values,
  /// offsets) — the caller frames them with its own header. Byte-for-byte
  /// the layout Rsqf snapshots have always used.
  bool SaveBody(std::ostream& os) const;
  /// Reads a SaveBody stream into this table (its owner's fresh
  /// instance), rejecting sizes that disagree with the geometry; the
  /// owner's commit checks the structure through CheckInvariants.
  bool ParseBody(std::istream& is, int q_bits, int value_bits);

  static constexpr double kMaxLoadFactor = 0.94;
  static constexpr uint64_t kBlockSlots = 64;
  static constexpr uint64_t kNone = ~uint64_t{0};

 private:
  // Global position of the k-th (1-indexed) runend bit at position >=
  // `from`. Returns kNone if none.
  uint64_t SelectRunendAfter(uint64_t from, uint64_t k) const;
  // Runend of the last occupied quotient <= q, or kNone if none.
  uint64_t RunEndUpTo(uint64_t q) const;
  // First slot of the run of occupied quotient q.
  uint64_t RunStart(uint64_t q) const;
  void RecomputeOffsets(uint64_t first_block, uint64_t last_block);

  int value_bits_;
  uint64_t num_quotients_;
  uint64_t total_slots_;  // num_quotients_ + slack (no wraparound).
  BitVector occupieds_;
  BitVector runends_;
  CompactVector values_;
  std::vector<uint16_t> offsets_;  // Per block of 64 quotient slots.
};

/// Rank-and-Select Quotient Filter: the point-membership family on the
/// RsqfTable substrate. Keeps runs unsorted (append at run end) and
/// supports inserts and lookups (membership); deletes live in the 3-bit
/// QuotientFilter, counting in CountingQuotientFilter, ranges in the
/// Memento filter.
class Rsqf : public Filter {
 public:
  Rsqf(int q_bits, int r_bits, uint64_t hash_seed = 0x45F);

  static Rsqf ForCapacity(uint64_t n, double fpr);

  using Filter::Contains;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  size_t SpaceBits() const override { return table_.SpaceBits(); }
  uint64_t NumKeys() const override { return num_keys_; }
  FilterClass Class() const override { return FilterClass::kSemiDynamic; }
  std::string_view Name() const override { return "rsqf"; }

  double LoadFactor() const override {
    return static_cast<double>(num_keys_) / (uint64_t{1} << q_bits_);
  }
  int r_bits() const { return r_bits_; }

  /// The table walk, with the key count as its used slots.
  bool CheckInvariants() const override {
    return table_.CheckInvariants(num_keys_);
  }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;

  static constexpr double kMaxLoadFactor = RsqfTable::kMaxLoadFactor;
  static constexpr uint64_t kBlockSlots = RsqfTable::kBlockSlots;

 private:
  void Fingerprint(HashedKey key, uint64_t* fq, uint64_t* fr) const;

  int q_bits_;
  int r_bits_;
  uint64_t hash_seed_;
  uint64_t num_keys_ = 0;
  RsqfTable table_;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_RSQF_H_
