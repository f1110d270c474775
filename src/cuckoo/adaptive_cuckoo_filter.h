#ifndef BBF_CUCKOO_ADAPTIVE_CUCKOO_FILTER_H_
#define BBF_CUCKOO_ADAPTIVE_CUCKOO_FILTER_H_

#include <cstdint>
#include <vector>

#include "core/filter.h"
#include "simd/kernels.h"
#include "util/compact_vector.h"
#include "util/random.h"

namespace bbf {

/// Adaptive cuckoo filter [Mitzenmacher, Pontarelli, Reviriego 2020]
/// (§2.3): a cuckoo filter whose slots carry a small *selector*; the
/// fingerprint stored in a slot is H_selector(key). When the fronted
/// dictionary observes a false positive, the filter bumps the selector of
/// every colliding slot and recomputes those slots' fingerprints from a
/// remote store of the original keys, so the same negative query stops
/// colliding (with high probability).
///
/// The remote key store stands in for the backing dictionary the filter
/// fronts (the ACF always assumes one); its memory is *not* counted in
/// SpaceBits, matching how the paper accounts filter space.
class AdaptiveCuckooFilter : public Filter, public AdaptiveHook {
 public:
  AdaptiveCuckooFilter(uint64_t expected_keys, int fingerprint_bits,
                       int selector_bits = 2, uint64_t hash_seed = 0xAC);

  using Filter::Contains;
  using Filter::ContainsMany;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  /// Batch path: prefetch both candidate buckets (fingerprints AND
  /// selectors) for a tile of keys, then probe. Buckets whose selectors
  /// are all still zero — the steady state until false positives are
  /// reported — take the packed-bucket kernel fast path (src/simd);
  /// adapted buckets fall back to the per-slot selector-aware scan.
  void ContainsMany(std::span<const HashedKey> keys,
                    uint8_t* out) const override;
  bool Erase(HashedKey key) override;
  size_t SpaceBits() const override {
    return fingerprints_.size() * (fingerprints_.width() + selector_bits_);
  }
  uint64_t NumKeys() const override { return num_keys_; }
  double LoadFactor() const override {
    return static_cast<double>(num_keys_) / fingerprints_.size();
  }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "adaptive-cuckoo"; }

  using AdaptiveHook::ReportFalsePositive;

  /// Rehashes every slot that collides with `key` under its current
  /// selector. Returns true if Contains(key) is now false.
  bool ReportFalsePositive(HashedKey key) override;

  uint64_t adaptations() const { return adaptations_; }

  static constexpr int kSlotsPerBucket = 4;
  static constexpr int kMaxKicks = 500;
  static constexpr size_t kMaxStash = 8;

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  /// What Insert, the kicks, Erase and ReportFalsePositive keep: the key
  /// count is occupied cells plus stash entries; an occupied cell sits in
  /// one of its remote key's buckets with that key's fingerprint under
  /// its selector; an empty cell holds no selector and no key.
  bool CheckInvariants() const override;

 private:
  struct SlotRef {
    uint64_t bucket;
    int slot;
  };

  uint64_t FingerprintOf(HashedKey key, uint64_t selector) const;
  uint64_t Index1(HashedKey key) const;
  uint64_t Index2(HashedKey key) const;
  uint64_t CellIndex(uint64_t bucket, int slot) const {
    return bucket * kSlotsPerBucket + slot;
  }
  bool TryPlace(uint64_t bucket, HashedKey key);
  bool SlotMatches(uint64_t bucket, int slot, HashedKey key) const;
  /// Shared probe body for Contains/ContainsMany: both candidate buckets
  /// plus the stash.
  bool ContainsInBuckets(HashedKey key, uint64_t i1, uint64_t i2) const;

  uint64_t num_buckets_;
  int fingerprint_bits_;
  int selector_bits_;
  uint64_t hash_seed_;
  // SWAR constants for the zero-selector kernel fast path.
  simd::BucketLayout layout_;
  CompactVector fingerprints_;        // 0 = empty cell.
  CompactVector selectors_;
  // Canonical (pre-mixed) key per cell — the backing dictionary.
  std::vector<uint64_t> remote_keys_;
  std::vector<uint64_t> stash_;  // Exact homeless canonical keys (rare).
  SplitMix64 kick_rng_;
  uint64_t num_keys_ = 0;
  uint64_t adaptations_ = 0;
};

}  // namespace bbf

#endif  // BBF_CUCKOO_ADAPTIVE_CUCKOO_FILTER_H_
