#ifndef BBF_BLOOM_SCALABLE_BLOOM_H_
#define BBF_BLOOM_SCALABLE_BLOOM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bloom/bloom_filter.h"
#include "core/filter.h"

namespace bbf {

/// Scalable Bloom filter [Almeida et al. 2007] (§2.2): a chain of Bloom
/// filters with geometrically increasing capacities and geometrically
/// tightening false-positive rates. The chain's total FPR converges to
/// fpr0 / (1 - tightening). This is the "chain of filters" expansion
/// strategy whose cost — every filter on the chain may be probed per
/// query — experiment E4 measures against Taffy-style expansion.
class ScalableBloomFilter : public Filter {
 public:
  ScalableBloomFilter(uint64_t initial_capacity, double target_fpr,
                      double growth = 2.0, double tightening = 0.5);

  using Filter::Contains;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  size_t SpaceBits() const override;
  uint64_t NumKeys() const override { return num_keys_; }
  /// Load of the newest stage only — it resets after each growth, so a
  /// scalable filter never reports permanent saturation.
  double LoadFactor() const override {
    if (stages_.empty()) return 0.0;
    const Stage& s = stages_.back();
    return static_cast<double>(s.used) / s.capacity;
  }
  FilterClass Class() const override { return FilterClass::kSemiDynamic; }
  std::string_view Name() const override { return "scalable-bloom"; }

  /// Number of filters on the chain — the per-query probe cost multiplier.
  size_t chain_length() const { return stages_.size(); }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  bool CheckInvariants() const override;

 private:
  struct Stage {
    std::unique_ptr<BloomFilter> filter;
    uint64_t capacity;
    uint64_t used = 0;
  };

  void AddStage();

  double target_fpr_;
  double growth_;
  double tightening_;
  uint64_t next_capacity_;
  double next_fpr_;
  std::vector<Stage> stages_;
  uint64_t num_keys_ = 0;
};

}  // namespace bbf

#endif  // BBF_BLOOM_SCALABLE_BLOOM_H_
