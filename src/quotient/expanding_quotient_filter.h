#ifndef BBF_QUOTIENT_EXPANDING_QUOTIENT_FILTER_H_
#define BBF_QUOTIENT_EXPANDING_QUOTIENT_FILTER_H_

#include <cstdint>

#include "core/filter.h"
#include "quotient/quotient_filter.h"

namespace bbf {

/// The quotient filter's built-in "limited support for expansion" (§2.2):
/// when load exceeds the threshold, double the table and steal one bit
/// from every fingerprint to address the new half. No rehash of original
/// keys is needed — but fingerprints shrink, so the false-positive rate
/// doubles with each expansion, and once remainders hit one bit the filter
/// can no longer expand (Insert starts failing). Experiment E4 contrasts
/// this with chaining and with Taffy-style expansion.
class ExpandingQuotientFilter : public Filter {
 public:
  /// Starts with 2^q_bits slots and r_bits-bit remainders.
  ExpandingQuotientFilter(int q_bits, int r_bits, uint64_t hash_seed = 0xBE);

  using Filter::Contains;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override { return filter_.Contains(key); }
  bool Erase(HashedKey key) override;
  size_t SpaceBits() const override { return filter_.SpaceBits(); }
  uint64_t NumKeys() const override { return filter_.NumKeys(); }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "expanding-quotient"; }

  int expansions() const { return expansions_; }
  int r_bits() const { return filter_.r_bits(); }
  double LoadFactor() const override { return filter_.LoadFactor(); }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;

 private:
  QuotientFilter filter_;
  uint64_t hash_seed_;
  int expansions_ = 0;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_EXPANDING_QUOTIENT_FILTER_H_
