#include "expandable/ring_filter.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

RingFilter::RingFilter(int r_bits, uint64_t segment_capacity,
                       uint64_t hash_seed)
    : r_bits_(r_bits),
      segment_capacity_(segment_capacity),
      hash_seed_(hash_seed) {
  ring_[0] = Segment{};  // One segment initially owns the whole ring.
}

void RingFilter::Locate(HashedKey key, uint32_t* bucket, uint16_t* fp) const {
  const uint64_t h = key.Derive(hash_seed_);
  *bucket = static_cast<uint32_t>(h >> (64 - kBucketBits));
  *fp = static_cast<uint16_t>(h & LowMask(r_bits_));
}

RingFilter::Segment& RingFilter::SegmentOf(uint32_t bucket) {
  ring_searches_.n.fetch_add(1, std::memory_order_relaxed);
  auto it = ring_.upper_bound(bucket);
  --it;  // Largest mount <= bucket; ring_[0] always exists.
  return it->second;
}

const RingFilter::Segment& RingFilter::SegmentOf(uint32_t bucket) const {
  ring_searches_.n.fetch_add(1, std::memory_order_relaxed);
  auto it = ring_.upper_bound(bucket);
  --it;
  return it->second;
}

bool RingFilter::Insert(HashedKey key) {
  uint32_t bucket;
  uint16_t fp;
  Locate(key, &bucket, &fp);
  Segment& segment = SegmentOf(bucket);
  segment.buckets[bucket].push_back(fp);
  ++segment.residents;
  ++num_keys_;
  if (segment.residents > segment_capacity_) {
    auto it = ring_.upper_bound(bucket);
    --it;
    MaybeSplit(it->first);
  }
  return true;
}

void RingFilter::MaybeSplit(uint32_t mount) {
  Segment& segment = ring_[mount];
  if (segment.buckets.size() < 2) return;  // One bucket can't split.
  // Mount a new segment at the median resident bucket; buckets at or
  // above it migrate wholesale (fingerprints untouched).
  uint64_t moved_target = segment.residents / 2;
  uint64_t seen = 0;
  uint32_t split_at = 0;
  for (const auto& [b, fps] : segment.buckets) {
    seen += fps.size();
    if (seen >= moved_target && b != mount) {
      split_at = b;
      break;
    }
  }
  if (split_at == 0) return;  // Everything is in the mount bucket.
  Segment fresh;
  auto first_moved = segment.buckets.lower_bound(split_at);
  for (auto it = first_moved; it != segment.buckets.end(); ++it) {
    fresh.residents += it->second.size();
    fresh.buckets.insert(std::move(*it));
  }
  segment.buckets.erase(first_moved, segment.buckets.end());
  segment.residents -= fresh.residents;
  ring_[split_at] = std::move(fresh);
}

bool RingFilter::Contains(HashedKey key) const {
  uint32_t bucket;
  uint16_t fp;
  Locate(key, &bucket, &fp);
  const Segment& segment = SegmentOf(bucket);
  const auto it = segment.buckets.find(bucket);
  if (it == segment.buckets.end()) return false;
  return std::find(it->second.begin(), it->second.end(), fp) !=
         it->second.end();
}

bool RingFilter::Erase(HashedKey key) {
  uint32_t bucket;
  uint16_t fp;
  Locate(key, &bucket, &fp);
  Segment& segment = SegmentOf(bucket);
  const auto it = segment.buckets.find(bucket);
  if (it == segment.buckets.end()) return false;
  const auto pos = std::find(it->second.begin(), it->second.end(), fp);
  if (pos == it->second.end()) return false;
  it->second.erase(pos);
  if (it->second.empty()) segment.buckets.erase(it);
  --segment.residents;
  --num_keys_;
  return true;
}

size_t RingFilter::SpaceBits() const {
  // Logical footprint: fingerprints + ring/bucket bookkeeping (one mount
  // id per segment, one id + length per occupied bucket).
  size_t bucket_count = 0;
  for (const auto& [m, s] : ring_) bucket_count += s.buckets.size();
  return num_keys_ * r_bits_ + ring_.size() * 64 + bucket_count * 32;
}

bool RingFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, r_bits_);
  WriteU64(os, segment_capacity_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_keys_);
  WriteU64(os, ring_.size());
  for (const auto& [mount, segment] : ring_) {
    WriteU64(os, mount);
    WriteU64(os, segment.buckets.size());
    for (const auto& [bucket, fps] : segment.buckets) {
      WriteU64(os, bucket);
      WriteU64(os, fps.size());
      for (uint16_t fp : fps) WriteU64(os, fp);
    }
  }
  return os.good();
}

bool RingFilter::LoadPayload(std::istream& is) {
  constexpr uint64_t kNumBuckets = uint64_t{1} << kBucketBits;
  RingFilter fresh(1, 1);
  uint64_t num_segments;
  if (!ReadI32(is, &fresh.r_bits_) || fresh.r_bits_ < 1 ||
      fresh.r_bits_ > 16 ||
      !ReadU64Capped(is, &fresh.segment_capacity_, kMaxSnapshotElements) ||
      fresh.segment_capacity_ == 0 || !ReadU64(is, &fresh.hash_seed_) ||
      !ReadU64(is, &fresh.num_keys_) ||
      !ReadU64Capped(is, &num_segments, kNumBuckets) || num_segments == 0) {
    return false;
  }
  fresh.ring_.clear();
  for (uint64_t i = 0; i < num_segments; ++i) {
    uint64_t mount;
    uint64_t num_buckets;
    // Mounts and buckets arrive in map order, each past the one before.
    if (!ReadU64Capped(is, &mount, kNumBuckets - 1) ||
        (!fresh.ring_.empty() && mount <= fresh.ring_.rbegin()->first) ||
        !ReadU64Capped(is, &num_buckets, kNumBuckets)) {
      return false;
    }
    Segment& segment = fresh.ring_[static_cast<uint32_t>(mount)];
    for (uint64_t b = 0; b < num_buckets; ++b) {
      uint64_t bucket;
      uint64_t count;
      if (!ReadU64Capped(is, &bucket, kNumBuckets - 1) ||
          (!segment.buckets.empty() &&
           bucket <= segment.buckets.rbegin()->first) ||
          !ReadU64Capped(is, &count, kMaxSnapshotElements)) {
        return false;
      }
      std::vector<uint16_t>& fps =
          segment.buckets[static_cast<uint32_t>(bucket)];
      fps.reserve(std::min<uint64_t>(count, 4096));
      for (uint64_t k = 0; k < count; ++k) {
        uint64_t fp;
        if (!ReadU64Capped(is, &fp, LowMask(fresh.r_bits_))) return false;
        fps.push_back(static_cast<uint16_t>(fp));
      }
      segment.residents += count;
    }
  }
  return CommitLoaded(*this, std::move(fresh));
}

bool RingFilter::CheckInvariants() const {
  // The first segment owns bucket 0, so SegmentOf's "largest mount <=
  // bucket" probe always finds a home; every bucket lies inside its
  // segment's arc and holds a fingerprint; residents add up.
  if (ring_.empty() || ring_.begin()->first != 0) return false;
  uint64_t total = 0;
  for (auto it = ring_.begin(); it != ring_.end(); ++it) {
    const auto next = std::next(it);
    uint64_t residents = 0;
    for (const auto& [bucket, fps] : it->second.buckets) {
      if (bucket < it->first || fps.empty() ||
          (next != ring_.end() && bucket >= next->first)) {
        return false;
      }
      residents += fps.size();
    }
    if (residents != it->second.residents) return false;
    total += residents;
  }
  return num_keys_ == total;
}

}  // namespace bbf
