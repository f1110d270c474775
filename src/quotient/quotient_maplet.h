#ifndef BBF_QUOTIENT_QUOTIENT_MAPLET_H_
#define BBF_QUOTIENT_QUOTIENT_MAPLET_H_

#include <cstdint>
#include <vector>

#include "core/key.h"
#include "maplet/maplet.h"
#include "quotient/quotient_table.h"

namespace bbf {

/// Quotient-filter maplet (§2.4): each slot stores a small value alongside
/// the remainder. A positive lookup returns the target key's value plus,
/// with probability epsilon per colliding fingerprint, a few arbitrary
/// extras (expected positive result size 1 + eps); a negative lookup
/// returns eps extras in expectation. The application disambiguates — the
/// SplinterDB/Chucky/Mantis pattern.
///
/// Multiple inserts of the same key accumulate multiple values (Mantis
/// maps each k-mer to a *collection* of experiments this way).
class QuotientMaplet final : public Maplet {
 public:
  QuotientMaplet(int q_bits, int r_bits, int value_bits,
                 uint64_t hash_seed = 0xBD);

  static QuotientMaplet ForCapacity(uint64_t n, double fpr, int value_bits);

  using Maplet::Erase;
  using Maplet::Insert;
  using Maplet::Lookup;

  /// Associates `value` (low value_bits) with `key`.
  /// Returns false when full.
  bool Insert(HashedKey key, uint64_t value) override;

  /// All values whose fingerprints match `key` (possibly empty).
  std::vector<uint64_t> Lookup(HashedKey key) const override;

  /// Removes one (key, value) association; value must match exactly.
  bool Erase(HashedKey key, uint64_t value) override;

  /// Bit-sacrifice doubling of the table (QuotientTable::Double); values
  /// ride along. False once remainders are down to one bit.
  bool DoubleTable() { return table_.Double(); }

  size_t SpaceBits() const override { return table_.SpaceBits(); }
  std::string_view Name() const override { return "quotient-maplet"; }
  /// One slot per entry, so the table's used slots are the entry count.
  uint64_t NumEntries() const { return table_.num_used_slots(); }
  double LoadFactor() const { return table_.LoadFactor(); }
  int value_bits() const { return table_.value_bits(); }
  int r_bits() const { return table_.r_bits(); }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  bool CheckInvariants() const override { return table_.CheckInvariants(); }

 private:
  void Fingerprint(HashedKey key, uint64_t* fq, uint64_t* fr) const;

  QuotientTable table_;
  uint64_t hash_seed_;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_QUOTIENT_MAPLET_H_
