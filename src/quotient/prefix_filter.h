#ifndef BBF_QUOTIENT_PREFIX_FILTER_H_
#define BBF_QUOTIENT_PREFIX_FILTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/filter.h"
#include "quotient/quotient_filter.h"
#include "util/compact_vector.h"

namespace bbf {

/// Prefix filter [Even, Even, Morrison 2022] (§2): a semi-dynamic filter
/// that is "practically and theoretically better than Bloom". Keys hash to
/// one bucket of a first-level fingerprint store; each bucket keeps only
/// the *prefix* of its incoming fingerprint set — once a bucket fills, it
/// is marked overflowed and later arrivals spill into a small dynamic
/// *spare* filter (here: a quotient filter sized for the expected ~7%
/// spill). Queries probe one bucket and, only if that bucket has
/// overflowed, the spare — so most negative queries cost a single cache
/// line.
///
/// Inserts only (semi-dynamic): deleting from a prefix bucket cannot know
/// whether the key lives in the spare.
class PrefixFilter : public Filter {
 public:
  PrefixFilter(uint64_t expected_keys, int fingerprint_bits,
               uint64_t hash_seed = 0x9F);

  using Filter::Contains;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  size_t SpaceBits() const override;
  uint64_t NumKeys() const override { return num_keys_; }
  /// Occupancy of the prefix-bucket table (the spare absorbs overflow).
  double LoadFactor() const override {
    return static_cast<double>(num_keys_) / cells_.size();
  }
  FilterClass Class() const override { return FilterClass::kSemiDynamic; }
  std::string_view Name() const override { return "prefix"; }

  uint64_t spare_keys() const { return spare_->NumKeys(); }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  bool CheckInvariants() const override;

  static constexpr int kBucketSize = 24;

 private:
  uint64_t BucketOf(HashedKey key) const;
  uint64_t FingerprintOf(HashedKey key) const;
  uint64_t CellIndex(uint64_t bucket, int slot) const {
    return bucket * kBucketSize + slot;
  }

  int fingerprint_bits_;
  uint64_t hash_seed_;
  uint64_t num_buckets_;
  CompactVector cells_;      // 0 = empty cell.
  BitVector overflowed_;     // Bucket spilled into the spare.
  std::vector<uint8_t> bucket_used_;
  std::unique_ptr<QuotientFilter> spare_;
  uint64_t num_keys_ = 0;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_PREFIX_FILTER_H_
