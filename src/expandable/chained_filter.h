#ifndef BBF_EXPANDABLE_CHAINED_FILTER_H_
#define BBF_EXPANDABLE_CHAINED_FILTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/filter.h"
#include "quotient/quotient_filter.h"

namespace bbf {

/// Chained expansion (§2.2, [24, 53, 2, 98]): a linked list of quotient
/// filters of geometrically increasing capacity. Inserts go to the newest
/// filter; a query probes *every* filter on the chain — the growing query
/// cost the paper calls out as this strategy's weakness (experiment E4).
/// Unlike the Bloom chain, deletes work: Erase tries each filter, newest
/// first. Every link hashes with the chain's one seed, which is what makes
/// that safe (see Erase).
class ChainedQuotientFilter : public Filter {
 public:
  /// First link has 2^q_bits slots; every link uses r_bits remainders
  /// (FPR per link ~2^-r, total ~chain_length * 2^-r).
  ChainedQuotientFilter(int q_bits, int r_bits, uint64_t hash_seed = 0xC4);

  using Filter::Contains;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  bool Erase(HashedKey key) override;
  uint64_t Count(HashedKey key) const override;
  size_t SpaceBits() const override;
  /// Sum of the links' counts (each is its table's used slots).
  uint64_t NumKeys() const override;
  /// Newest link only — a fresh link resets the load after each growth.
  double LoadFactor() const override {
    return links_.empty() ? 0.0 : links_.back()->LoadFactor();
  }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "chained-quotient"; }

  /// Per-query probe multiplier.
  size_t chain_length() const { return links_.size(); }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;

 private:
  int r_bits_;
  int next_q_bits_;
  uint64_t hash_seed_;
  std::vector<std::unique_ptr<QuotientFilter>> links_;
};

}  // namespace bbf

#endif  // BBF_EXPANDABLE_CHAINED_FILTER_H_
