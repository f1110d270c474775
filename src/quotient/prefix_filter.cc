#include "quotient/prefix_filter.h"

#include <algorithm>

#include "core/sizing.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

PrefixFilter::PrefixFilter(uint64_t expected_keys, int fingerprint_bits,
                           uint64_t hash_seed)
    : fingerprint_bits_(fingerprint_bits), hash_seed_(hash_seed) {
  num_buckets_ = std::max<uint64_t>(
      2, expected_keys / (kBucketSize * 95 / 100));
  cells_ = CompactVector(num_buckets_ * kBucketSize, fingerprint_bits_);
  overflowed_.Resize(num_buckets_);
  bucket_used_.resize(num_buckets_, 0);
  // ~7% of keys land in overflowed buckets at this geometry; size the
  // spare generously so it never becomes the bottleneck.
  const uint64_t spare_capacity = std::max<uint64_t>(expected_keys / 6, 64);
  spare_ = std::make_unique<QuotientFilter>(
      QuotientBitsFor(spare_capacity, QuotientFilter::kMaxLoadFactor),
      fingerprint_bits_, hash_seed_ + 0x51);
}

uint64_t PrefixFilter::BucketOf(HashedKey key) const {
  return FastRange64(key.Derive(hash_seed_), num_buckets_);
}

uint64_t PrefixFilter::FingerprintOf(HashedKey key) const {
  const uint64_t fp =
      key.Derive(hash_seed_ + 1) & LowMask(fingerprint_bits_);
  return fp == 0 ? 1 : fp;
}

bool PrefixFilter::Insert(HashedKey key) {
  const uint64_t bucket = BucketOf(key);
  const uint64_t fp = FingerprintOf(key);
  if (bucket_used_[bucket] < kBucketSize) {
    cells_.Set(CellIndex(bucket, bucket_used_[bucket]++), fp);
    ++num_keys_;
    return true;
  }
  // Bucket full: mark it and spill to the spare (dynamic) filter.
  overflowed_.Set(bucket);
  if (!spare_->Insert(key)) return false;
  ++num_keys_;
  return true;
}

bool PrefixFilter::Contains(HashedKey key) const {
  const uint64_t bucket = BucketOf(key);
  const uint64_t fp = FingerprintOf(key);
  for (int s = 0; s < bucket_used_[bucket]; ++s) {
    if (cells_.Get(CellIndex(bucket, s)) == fp) return true;
  }
  // The spare only matters if this bucket ever spilled.
  return overflowed_.Get(bucket) && spare_->Contains(key);
}

size_t PrefixFilter::SpaceBits() const {
  return cells_.size() * cells_.width() + overflowed_.size() +
         num_buckets_ * 5 +  // bucket_used_ counters (<= 24 fits in 5 bits).
         spare_->SpaceBits();
}

bool PrefixFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, fingerprint_bits_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_buckets_);
  WriteU64(os, num_keys_);
  cells_.Save(os);
  overflowed_.Save(os);
  os.write(reinterpret_cast<const char*>(bucket_used_.data()),
           static_cast<std::streamsize>(bucket_used_.size()));
  return spare_->SavePayload(os) && os.good();
}

bool PrefixFilter::LoadPayload(std::istream& is) {
  PrefixFilter fresh(0, 1);
  const int& f = fresh.fingerprint_bits_;
  const uint64_t& buckets = fresh.num_buckets_;
  if (!ReadI32(is, &fresh.fingerprint_bits_) || f < 1 || f > 64 ||
      !ReadU64(is, &fresh.hash_seed_) ||
      !ReadU64Capped(is, &fresh.num_buckets_,
                     kMaxSnapshotElements / kBucketSize) ||
      buckets < 2 || !ReadU64(is, &fresh.num_keys_) ||
      !fresh.cells_.Load(is) || fresh.cells_.size() != buckets * kBucketSize ||
      fresh.cells_.width() != f || !fresh.overflowed_.Load(is) ||
      fresh.overflowed_.size() != buckets) {
    return false;
  }
  std::string used_bytes;
  if (!ReadBytes(is, &used_bytes, buckets)) return false;
  fresh.bucket_used_.assign(used_bytes.begin(), used_bytes.end());
  return fresh.spare_->LoadPayload(is) &&
         CommitLoaded(*this, std::move(fresh));
}

bool PrefixFilter::CheckInvariants() const {
  // No bucket claims more cells than it has, and every key sits in one
  // prefix bucket cell or in the spare.
  uint64_t held = spare_->NumKeys();
  for (uint8_t used : bucket_used_) {
    if (used > kBucketSize) return false;
    held += used;
  }
  return num_keys_ == held;
}

}  // namespace bbf
