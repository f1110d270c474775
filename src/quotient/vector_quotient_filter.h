#ifndef BBF_QUOTIENT_VECTOR_QUOTIENT_FILTER_H_
#define BBF_QUOTIENT_VECTOR_QUOTIENT_FILTER_H_

#include <cstdint>
#include <vector>

#include "core/filter.h"
#include "util/bit_vector.h"
#include "util/compact_vector.h"

namespace bbf {

/// Vector quotient filter [Pandey et al. 2021] (§2.1, footnote 1): the
/// table is split into cache-line-sized *blocks*, each a mini quotient
/// filter of many tiny buckets whose sizes are encoded in unary inside a
/// per-block metadata bit vector (~2.9 metadata bits/slot at our
/// geometry). Every key has two candidate blocks (power-of-two choices),
/// which keeps all blocks near-uniformly loaded and makes inserts two
/// cache lines in the worst case — the time/space sweet spot the VQF paper
/// targets.
///
/// Deletions are supported (remove a remainder from its mini bucket).
class VectorQuotientFilter : public Filter {
 public:
  /// Capacity for ~expected_keys at 90% load; r-bit remainders.
  VectorQuotientFilter(uint64_t expected_keys, int remainder_bits,
                       uint64_t hash_seed = 0xF6);

  using Filter::Contains;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  bool Erase(HashedKey key) override;
  size_t SpaceBits() const override;
  uint64_t NumKeys() const override { return num_keys_; }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "vector-quotient"; }

  double LoadFactor() const override {
    return static_cast<double>(num_keys_) /
           (static_cast<double>(blocks_.size()) * kSlotsPerBlock);
  }

  static constexpr int kBucketsPerBlock = 40;
  static constexpr int kSlotsPerBlock = 48;

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;
  bool CheckInvariants() const override;

 private:
  struct Block {
    // Unary bucket-size encoding: kBucketsPerBlock ones (bucket markers),
    // one zero per occupied slot, placed after its bucket's marker.
    BitVector metadata;
    CompactVector remainders;  // Occupied slots, in bucket order.
    int used = 0;
  };

  struct Probe {
    uint64_t block;
    uint32_t bucket;
    uint64_t remainder;
  };

  Probe ProbeOf(HashedKey key, int which) const;
  // Slot range [begin, end) of `bucket` within `block`.
  void BucketRange(const Block& block, uint32_t bucket, int* begin,
                   int* end) const;
  bool BlockContains(const Block& block, uint32_t bucket,
                     uint64_t remainder) const;
  bool InsertIntoBlock(Block* block, uint32_t bucket, uint64_t remainder);
  bool EraseFromBlock(Block* block, uint32_t bucket, uint64_t remainder);

  int remainder_bits_;
  uint64_t hash_seed_;
  std::vector<Block> blocks_;
  uint64_t num_keys_ = 0;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_VECTOR_QUOTIENT_FILTER_H_
