#include "quotient/vector_quotient_filter.h"

#include <algorithm>

#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {
namespace {

// Whether `metadata` is a block's unary code for `used` slots: bucket 0's
// marker first, exactly kBucketsPerBlock markers (and so `used` slot
// zeros) among the first kBucketsPerBlock + used bits, and nothing set
// past them. BucketRange walks markers without a bounds check and relies
// on this.
bool IsUnaryCode(const BitVector& metadata, int used) {
  constexpr int kBuckets = VectorQuotientFilter::kBucketsPerBlock;
  if (!metadata.Get(0)) return false;
  int ones = 0;
  for (uint64_t i = 0; i < metadata.size(); ++i) {
    if (!metadata.Get(i)) continue;
    if (i >= static_cast<uint64_t>(kBuckets + used)) return false;
    ++ones;
  }
  return ones == kBuckets;
}

}  // namespace

VectorQuotientFilter::VectorQuotientFilter(uint64_t expected_keys,
                                           int remainder_bits,
                                           uint64_t hash_seed)
    : remainder_bits_(remainder_bits), hash_seed_(hash_seed) {
  const uint64_t num_blocks = std::max<uint64_t>(
      2, (expected_keys + kSlotsPerBlock - 1) /
             static_cast<uint64_t>(kSlotsPerBlock * 0.9));
  blocks_.resize(num_blocks);
  for (Block& b : blocks_) {
    b.metadata.Resize(kBucketsPerBlock + kSlotsPerBlock);
    // All buckets empty: the first kBucketsPerBlock bits are the markers.
    for (int i = 0; i < kBucketsPerBlock; ++i) b.metadata.Set(i);
    b.remainders = CompactVector(kSlotsPerBlock, remainder_bits_);
  }
}

VectorQuotientFilter::Probe VectorQuotientFilter::ProbeOf(HashedKey key,
                                                          int which) const {
  const uint64_t h = key.Derive(hash_seed_ + which);
  Probe p;
  p.block = FastRange64(h, blocks_.size());
  p.bucket = static_cast<uint32_t>((h >> 32) % kBucketsPerBlock);
  p.remainder = key.Derive(hash_seed_ + 9) & LowMask(remainder_bits_);
  return p;
}

void VectorQuotientFilter::BucketRange(const Block& block, uint32_t bucket,
                                       int* begin, int* end) const {
  // Walk the small metadata vector counting markers (1s) and slots (0s).
  int ones = 0;
  int zeros = 0;
  int i = 0;
  const int total = kBucketsPerBlock + block.used;
  // Find the marker of `bucket`.
  while (ones <= static_cast<int>(bucket)) {
    if (block.metadata.Get(i)) {
      ++ones;
    } else {
      ++zeros;
    }
    ++i;
  }
  *begin = zeros;
  // Items of this bucket are the zeros before the next marker.
  while (i < total && !block.metadata.Get(i)) {
    ++zeros;
    ++i;
  }
  *end = zeros;
}

bool VectorQuotientFilter::BlockContains(const Block& block, uint32_t bucket,
                                         uint64_t remainder) const {
  int begin;
  int end;
  BucketRange(block, bucket, &begin, &end);
  for (int s = begin; s < end; ++s) {
    if (block.remainders.Get(s) == remainder) return true;
  }
  return false;
}

bool VectorQuotientFilter::InsertIntoBlock(Block* block, uint32_t bucket,
                                           uint64_t remainder) {
  if (block->used >= kSlotsPerBlock) return false;
  int begin;
  int end;
  BucketRange(*block, bucket, &begin, &end);
  // Metadata: insert a 0 right after this bucket's marker. The marker of
  // bucket b sits at bit position b + begin... more precisely at
  // (number of 1s up to it) + (zeros before) = bucket + begin.
  const int marker_pos = static_cast<int>(bucket) + begin;
  const int total = kBucketsPerBlock + block->used;
  for (int i = total; i > marker_pos + 1; --i) {
    block->metadata.Assign(i, block->metadata.Get(i - 1));
  }
  block->metadata.Clear(marker_pos + 1);
  // Remainders: shift right from slot `begin`.
  for (int s = block->used; s > begin; --s) {
    block->remainders.Set(s, block->remainders.Get(s - 1));
  }
  block->remainders.Set(begin, remainder);
  ++block->used;
  return true;
}

bool VectorQuotientFilter::EraseFromBlock(Block* block, uint32_t bucket,
                                          uint64_t remainder) {
  int begin;
  int end;
  BucketRange(*block, bucket, &begin, &end);
  int slot = -1;
  for (int s = begin; s < end; ++s) {
    if (block->remainders.Get(s) == remainder) {
      slot = s;
      break;
    }
  }
  if (slot < 0) return false;
  // Remove the zero after this bucket's marker (any zero of the bucket
  // works: sizes are what matters).
  const int zero_pos = static_cast<int>(bucket) + begin + 1;
  const int total = kBucketsPerBlock + block->used;
  for (int i = zero_pos; i < total - 1; ++i) {
    block->metadata.Assign(i, block->metadata.Get(i + 1));
  }
  block->metadata.Clear(total - 1);
  for (int s = slot; s < block->used - 1; ++s) {
    block->remainders.Set(s, block->remainders.Get(s + 1));
  }
  --block->used;
  return true;
}

bool VectorQuotientFilter::Insert(HashedKey key) {
  const Probe p1 = ProbeOf(key, 0);
  const Probe p2 = ProbeOf(key, 1);
  // Power of two choices: the emptier candidate block wins.
  Block& b1 = blocks_[p1.block];
  Block& b2 = blocks_[p2.block];
  const bool first = b1.used <= b2.used;
  if (InsertIntoBlock(first ? &b1 : &b2, first ? p1.bucket : p2.bucket,
                      p1.remainder) ||
      InsertIntoBlock(first ? &b2 : &b1, first ? p2.bucket : p1.bucket,
                      p1.remainder)) {
    ++num_keys_;
    return true;
  }
  return false;  // Both candidate blocks full: the filter is at capacity.
}

bool VectorQuotientFilter::Contains(HashedKey key) const {
  const Probe p1 = ProbeOf(key, 0);
  if (BlockContains(blocks_[p1.block], p1.bucket, p1.remainder)) return true;
  const Probe p2 = ProbeOf(key, 1);
  return BlockContains(blocks_[p2.block], p2.bucket, p1.remainder);
}

bool VectorQuotientFilter::Erase(HashedKey key) {
  const Probe p1 = ProbeOf(key, 0);
  if (EraseFromBlock(&blocks_[p1.block], p1.bucket, p1.remainder)) {
    --num_keys_;
    return true;
  }
  const Probe p2 = ProbeOf(key, 1);
  if (EraseFromBlock(&blocks_[p2.block], p2.bucket, p1.remainder)) {
    --num_keys_;
    return true;
  }
  return false;
}

size_t VectorQuotientFilter::SpaceBits() const {
  // Metadata (buckets + slots bits) + remainder storage per block.
  return blocks_.size() * (kBucketsPerBlock + kSlotsPerBlock +
                           kSlotsPerBlock * remainder_bits_);
}

bool VectorQuotientFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, remainder_bits_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_keys_);
  WriteU64(os, blocks_.size());
  for (const Block& b : blocks_) {
    WriteI32(os, b.used);
    b.metadata.Save(os);
    b.remainders.Save(os);
  }
  return os.good();
}

bool VectorQuotientFilter::LoadPayload(std::istream& is) {
  VectorQuotientFilter fresh(0, 1);
  uint64_t num_blocks;
  if (!ReadI32(is, &fresh.remainder_bits_) || fresh.remainder_bits_ < 1 ||
      fresh.remainder_bits_ > 64 || !ReadU64(is, &fresh.hash_seed_) ||
      !ReadU64(is, &fresh.num_keys_) ||
      !ReadU64Capped(is, &num_blocks,
                     kMaxSnapshotElements / kSlotsPerBlock) ||
      num_blocks < 2) {
    return false;
  }
  // One block at a time: a hostile block count runs out of stream before
  // it can allocate more blocks than the payload holds.
  fresh.blocks_.clear();
  for (uint64_t i = 0; i < num_blocks; ++i) {
    Block& b = fresh.blocks_.emplace_back();
    if (!ReadI32(is, &b.used) || !b.metadata.Load(is) ||
        b.metadata.size() !=
            static_cast<uint64_t>(kBucketsPerBlock + kSlotsPerBlock) ||
        !b.remainders.Load(is) ||
        b.remainders.size() != static_cast<uint64_t>(kSlotsPerBlock) ||
        b.remainders.width() != fresh.remainder_bits_) {
      return false;
    }
  }
  return CommitLoaded(*this, std::move(fresh));
}

bool VectorQuotientFilter::CheckInvariants() const {
  // Each block's metadata is the unary code of its used slots, and the key
  // count is the sum of the blocks'.
  uint64_t used = 0;
  for (const Block& b : blocks_) {
    if (b.used < 0 || b.used > kSlotsPerBlock ||
        !IsUnaryCode(b.metadata, b.used)) {
      return false;
    }
    used += static_cast<uint64_t>(b.used);
  }
  return num_keys_ == used;
}

}  // namespace bbf
