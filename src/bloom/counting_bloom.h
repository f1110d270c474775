#ifndef BBF_BLOOM_COUNTING_BLOOM_H_
#define BBF_BLOOM_COUNTING_BLOOM_H_

#include <cstdint>
#include <numbers>

#include "core/filter.h"
#include "util/compact_vector.h"

namespace bbf {

/// Counting Bloom filter (§2.6): the bit array of a Bloom filter replaced
/// by fixed-width counters so deletes become possible and queries can
/// return multiplicities (upper bounds, as in the paper: an incorrect
/// count is always *greater* than the true count).
///
/// Counters saturate at 2^width - 1 and become sticky: a saturated counter
/// is never decremented, reproducing the undercount-after-deletes hazard
/// the paper describes. Callers can watch saturated_counters() and rebuild
/// with wider counters — RebuiltWithWiderCounters() does exactly that by
/// doubling the width (the paper's prescribed fix).
class CountingBloomFilter : public Filter {
 public:
  CountingBloomFilter(uint64_t expected_keys, double bits_per_key,
                      int counter_bits = 4, int num_hashes = 0);

  using Filter::Contains;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override { return Count(key) > 0; }
  bool Erase(HashedKey key) override;
  uint64_t Count(HashedKey key) const override;
  size_t SpaceBits() const override {
    return counters_.size() * counters_.width();
  }
  uint64_t NumKeys() const override { return num_keys_; }
  /// Same capacity recovery as BloomFilter: m counters at optimum k.
  double LoadFactor() const override {
    return static_cast<double>(num_keys_) * num_hashes_ /
           (std::numbers::ln2 * counters_.size());
  }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "counting-bloom"; }

  /// Number of counters currently pinned at their maximum value.
  uint64_t saturated_counters() const { return saturated_; }
  int counter_bits() const { return counters_.width(); }

  /// A fresh filter with doubled counter width; the caller re-inserts keys.
  CountingBloomFilter RebuiltWithWiderCounters() const;

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  bool CheckInvariants() const override {
    return saturated_ <= counters_.size();
  }

 private:
  uint64_t CounterIndex(HashedKey key, int i) const;

  CompactVector counters_;
  int num_hashes_;
  uint64_t num_keys_ = 0;
  uint64_t saturated_ = 0;
};

/// Spectral Bloom filter, minimum-increase variant (§2.6): on insert, only
/// the counters currently holding the minimum are incremented. This keeps
/// counter values close to true multiplicities under skew at the price of
/// not supporting deletes (minimum-increase breaks delete safety).
class SpectralBloomFilter : public Filter {
 public:
  SpectralBloomFilter(uint64_t expected_keys, double bits_per_key,
                      int counter_bits = 8, int num_hashes = 0);

  using Filter::Contains;
  using Filter::Count;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override { return Count(key) > 0; }
  uint64_t Count(HashedKey key) const override;
  size_t SpaceBits() const override {
    return counters_.size() * counters_.width();
  }
  uint64_t NumKeys() const override { return num_keys_; }
  double LoadFactor() const override {
    return static_cast<double>(num_keys_) * num_hashes_ /
           (std::numbers::ln2 * counters_.size());
  }
  FilterClass Class() const override { return FilterClass::kSemiDynamic; }
  std::string_view Name() const override { return "spectral-bloom"; }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;

 private:
  uint64_t CounterIndex(HashedKey key, int i) const;

  CompactVector counters_;
  int num_hashes_;
  uint64_t num_keys_ = 0;
};

}  // namespace bbf

#endif  // BBF_BLOOM_COUNTING_BLOOM_H_
