#ifndef BBF_ADAPTIVE_ADAPTIVE_QUOTIENT_FILTER_H_
#define BBF_ADAPTIVE_ADAPTIVE_QUOTIENT_FILTER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/filter.h"
#include "quotient/quotient_filter.h"

namespace bbf {

/// Adaptive quotient filter in the broom-filter mould [Bender et al. 2018;
/// Wen et al. 2025] (§2.3): a quotient filter plus per-fingerprint
/// *extensions*. When the fronted dictionary reports a false positive,
/// every resident key sharing the offending fingerprint grows its
/// extension — further hash bits, recomputed from the dictionary's copy of
/// the key — until the reported query no longer matches. A query that hits
/// the base filter must also match some resident's extension, so an
/// adapted false positive can never repeat: any sequence of n negative
/// queries sees O(eps * n) false positives even when chosen adversarially
/// (the *monotone adaptivity* guarantee).
///
/// The extension store is a sparse side map (most fingerprints never adapt
/// and cost nothing); the remote key store models the dictionary the
/// filter always fronts and is not charged to SpaceBits.
class AdaptiveQuotientFilter : public Filter, public AdaptiveHook {
 public:
  AdaptiveQuotientFilter(int q_bits, int r_bits, uint64_t hash_seed = 0xAD);

  static AdaptiveQuotientFilter ForCapacity(uint64_t n, double fpr);

  using Filter::Contains;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  bool Erase(HashedKey key) override;
  size_t SpaceBits() const override;
  uint64_t NumKeys() const override { return base_.NumKeys(); }
  double LoadFactor() const override { return base_.LoadFactor(); }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "adaptive-quotient"; }

  using AdaptiveHook::ReportFalsePositive;

  /// Extends colliding residents' fingerprints until `key` stops
  /// matching. Returns true if Contains(key) is now false.
  bool ReportFalsePositive(HashedKey key) override;

  uint64_t adaptations() const { return adaptations_; }
  size_t extended_fingerprints() const { return extensions_.size(); }

  static constexpr int kMaxExtensionBits = 32;

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  bool CheckInvariants() const override;

 private:
  struct Extension {
    uint64_t key;   // Canonical resident key (remote store / dictionary).
    int len;        // Extension bits in use.
    uint64_t bits;  // The resident's own hash extension of that length.
  };

  uint64_t FingerprintKey(HashedKey key) const;  // (fq << r) | fr.
  uint64_t ExtensionBitsOf(HashedKey key, int len) const;

  QuotientFilter base_;
  uint64_t hash_seed_;
  // fingerprint -> residents with extended fingerprints. Only populated
  // for fingerprints that have adapted at least once.
  std::unordered_map<uint64_t, std::vector<Extension>> extensions_;
  // fingerprint -> canonical resident keys (dictionary reverse index).
  std::unordered_map<uint64_t, std::vector<uint64_t>> remote_;
  uint64_t adaptations_ = 0;
};

}  // namespace bbf

#endif  // BBF_ADAPTIVE_ADAPTIVE_QUOTIENT_FILTER_H_
