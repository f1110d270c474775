#ifndef BBF_CUCKOO_CUCKOO_FILTER_H_
#define BBF_CUCKOO_CUCKOO_FILTER_H_

#include <cstdint>

#include "core/filter.h"
#include "cuckoo/cuckoo_table.h"

namespace bbf {

/// Cuckoo filter [Fan et al. 2014] (§2.1): a 4-way-associative table of
/// fingerprints with partial-key cuckoo hashing. Each key has two candidate
/// buckets (the second derived by XORing the first with a hash of the
/// fingerprint, so relocation never needs the original key); inserts kick
/// resident fingerprints between their two buckets until something lands.
/// Space is n lg(1/eps) + 3n bits at 95% load with 4-slot buckets. The
/// buckets, kicks and stash are the CuckooTable engine's.
class CuckooFilter : public Filter {
 public:
  /// A table with >= `expected_keys` capacity at ~95% load and
  /// `fingerprint_bits`-bit fingerprints (FPR ~ 8/2^f).
  CuckooFilter(uint64_t expected_keys, int fingerprint_bits,
               uint64_t hash_seed = 0xCF);

  static CuckooFilter ForFpr(uint64_t expected_keys, double fpr);

  using Filter::Contains;
  using Filter::ContainsMany;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;
  using Filter::InsertMany;

  bool Insert(HashedKey key) override { return Place(table_.ProbeOf(key)); }
  bool Contains(HashedKey key) const override {
    return table_.Contains(table_.ProbeOf(key));
  }
  /// The table's probe reads through acquire loads, so it can overlap a
  /// writer (CuckooTable's class comment).
  std::optional<bool> SpeculativeContains(HashedKey key) const override {
    return table_.Contains(table_.ProbeOf(key));
  }
  /// Batch paths: derive a tile of keys, prefetch both candidate buckets
  /// per key, then probe/place — one pipeline of independent cache misses
  /// instead of two dependent misses per key. Bucket scans go through the
  /// runtime-dispatched match kernels (src/simd): each 4-slot bucket is
  /// read as ONE packed word and compared against the fingerprint in a
  /// single SWAR/vector step instead of four field extractions.
  void ContainsMany(std::span<const HashedKey> keys,
                    uint8_t* out) const override;
  size_t InsertMany(std::span<const HashedKey> keys) override;
  bool Erase(HashedKey key) override {
    return table_.Erase(table_.ProbeOf(key));
  }
  uint64_t Count(HashedKey key) const override {
    return table_.Count(table_.ProbeOf(key));
  }
  size_t SpaceBits() const override { return table_.SpaceBits(); }
  uint64_t NumKeys() const override { return table_.num_keys(); }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "cuckoo"; }

  double LoadFactor() const override {
    return static_cast<double>(table_.num_keys()) / table_.num_cells();
  }
  int fingerprint_bits() const { return table_.fingerprint_bits(); }
  size_t stash_size() const { return table_.stash_size(); }

  static constexpr int kSlotsPerBucket = CuckooTable::kSlotsPerBucket;
  static constexpr int kMaxKicks = CuckooTable::kMaxKicks;
  static constexpr size_t kMaxStash = CuckooTable::kMaxStash;

  bool SavePayload(std::ostream& os) const override {
    return table_.Save(os);
  }
  bool LoadPayload(std::istream& is) override { return table_.Load(is); }
  bool CheckInvariants() const override { return table_.CheckInvariants(); }

 private:
  // Insert body for a derived key, reporting its kick chain; shared by
  // Insert and InsertMany.
  bool Place(const CuckooTable::Probe& p);

  CuckooTable table_;
};

}  // namespace bbf

#endif  // BBF_CUCKOO_CUCKOO_FILTER_H_
