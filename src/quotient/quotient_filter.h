#ifndef BBF_QUOTIENT_QUOTIENT_FILTER_H_
#define BBF_QUOTIENT_QUOTIENT_FILTER_H_

#include <cstdint>
#include <vector>

#include "core/filter.h"
#include "quotient/quotient_table.h"

namespace bbf {

/// Quotient filter [Bender et al. 2012] (§2.1): a p-bit fingerprint is
/// split into a q-bit quotient (the slot index, stored implicitly) and an
/// r-bit remainder (stored explicitly); Robin-Hood hashing keeps runs of
/// same-quotient remainders sorted and contiguous. Uses the original
/// 3-metadata-bit scheme, i.e. n lg(1/eps) + 3n bits at full load.
///
/// Fully dynamic: inserts, deletes, and multiset semantics (duplicate
/// inserts are stored as duplicate remainders; Count reports them).
class QuotientFilter : public Filter {
 public:
  /// 2^q_bits slots, r_bits-bit remainders. FPR ~ load * 2^-r.
  QuotientFilter(int q_bits, int r_bits, uint64_t hash_seed = 0xBB);

  /// A filter sized for `n` keys at false-positive rate `fpr` (at the
  /// default max load factor).
  static QuotientFilter ForCapacity(uint64_t n, double fpr);

  using Filter::Contains;
  using Filter::ContainsMany;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;
  using Filter::InsertMany;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  /// Batch paths: fingerprint a tile of keys, prefetch each home slot's
  /// metadata/remainder words, then walk the runs.
  void ContainsMany(std::span<const HashedKey> keys,
                    uint8_t* out) const override;
  size_t InsertMany(std::span<const HashedKey> keys) override;
  bool Erase(HashedKey key) override;
  uint64_t Count(HashedKey key) const override;
  size_t SpaceBits() const override { return table_.SpaceBits(); }
  /// One slot per key, so the table's used slots are the key count.
  uint64_t NumKeys() const override { return table_.num_used_slots(); }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "quotient"; }

  double LoadFactor() const override { return table_.LoadFactor(); }
  int q_bits() const { return table_.q_bits(); }
  int r_bits() const { return table_.r_bits(); }

  /// Splits the fingerprint of `key` into (quotient, remainder).
  void Fingerprint(HashedKey key, uint64_t* fq, uint64_t* fr) const;

  /// Bit-sacrifice doubling of the table (QuotientTable::Double); false
  /// once remainders are down to one bit.
  bool DoubleTable() { return table_.Double(); }

  /// Read access to the physical table (tests, invariant checks).
  const QuotientTable& table() const { return table_; }

  /// Snapshot payload (framed by Filter::Save/Load). A failed load leaves
  /// the filter in its prior state.
  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  bool CheckInvariants() const override { return table_.CheckInvariants(); }

  static constexpr double kMaxLoadFactor = 0.94;

 private:
  // Bodies for a pre-split fingerprint, shared by the scalar and batch
  // paths.
  bool ContainsFingerprint(uint64_t fq, uint64_t fr) const;
  bool InsertSorted(uint64_t fq, uint64_t fr);

  QuotientTable table_;
  uint64_t hash_seed_;
};

/// Counting quotient filter (§2.6): multiset counts embedded *inside* the
/// run as variable-length counters. We mark counter-digit slots with a
/// fourth metadata bit (tag) instead of the paper's 2.125-bit
/// rank-and-select encoding — see DESIGN.md §6.1. A key with count c uses
/// its remainder slot plus ceil(log_{2^r}(c)) digit slots, so hot keys in
/// a skewed multiset cost O(log c) slots instead of c slots.
class CountingQuotientFilter : public Filter {
 public:
  CountingQuotientFilter(int q_bits, int r_bits, uint64_t hash_seed = 0xBC);

  static CountingQuotientFilter ForCapacity(uint64_t n, double fpr);

  using Filter::Contains;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override { return Count(key) > 0; }
  bool Erase(HashedKey key) override;
  uint64_t Count(HashedKey key) const override;
  size_t SpaceBits() const override { return table_.SpaceBits(); }
  uint64_t NumKeys() const override { return num_keys_; }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "counting-quotient"; }

  double LoadFactor() const override { return table_.LoadFactor(); }
  uint64_t num_used_slots() const { return table_.num_used_slots(); }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  /// The table walk, then the key count against a decode of every
  /// counter.
  bool CheckInvariants() const override;

 private:
  void Fingerprint(HashedKey key, uint64_t* fq, uint64_t* fr) const;
  // Count of (fq, fr), 0 when absent. Otherwise *pos is its remainder slot
  // and, when `digits` is non-null, the counter-digit slots behind it are
  // appended to *digits, least significant first.
  uint64_t ReadCounter(uint64_t fq, uint64_t fr, uint64_t* pos,
                       std::vector<uint64_t>* digits) const;

  QuotientTable table_;
  uint64_t hash_seed_;
  uint64_t num_keys_ = 0;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_QUOTIENT_FILTER_H_
