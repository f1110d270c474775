#include "cuckoo/cuckoo_table.h"

#include <algorithm>
#include <utility>

#include "util/serialize.h"

namespace bbf {

CuckooTable::CuckooTable(uint64_t expected_keys, int fingerprint_bits,
                         int value_bits, uint64_t hash_seed,
                         KickSeed kick_seed)
    : fingerprint_bits_(fingerprint_bits),
      hash_seed_(hash_seed),
      kick_seed_(kick_seed),
      layout_(simd::BucketLayout::Make(fingerprint_bits)),
      kick_rng_(hash_seed * kick_seed.mul + kick_seed.add) {
  const uint64_t cells =
      std::max<uint64_t>(kSlotsPerBucket * 2,
                         static_cast<uint64_t>(expected_keys / 0.95));
  num_buckets_ = NextPow2((cells + kSlotsPerBucket - 1) / kSlotsPerBucket);
  fingerprints_ =
      CompactVector(num_buckets_ * kSlotsPerBucket, fingerprint_bits);
  if (value_bits > 0) {
    values_ = CompactVector(num_buckets_ * kSlotsPerBucket, value_bits);
  }
}

bool CuckooTable::Kick(const Probe& p, uint64_t value, uint64_t* kicks) {
  uint64_t walked = 0;
  if (kicks == nullptr) kicks = &walked;
  // Kicking can leave a victim homeless; the stash absorbs it. When the
  // stash is already full the kick chain may still succeed without it,
  // so record every displaced cell and, if the chain dead-ends, unwind
  // it exactly — mutating the table and then dropping the last victim
  // would manufacture a false negative for an acknowledged key.
  const bool may_need_unwind = stash_size_ >= kMaxStash;
  std::vector<uint64_t> path;  // Cell per kick.
  if (may_need_unwind) path.reserve(kMaxKicks);
  uint64_t fp = p.fp;
  // Kick a random resident back and forth between its two buckets.
  uint64_t bucket = kick_rng_.NextBelow(2) ? p.i1 : p.i2;
  for (int kick = 0; kick < kMaxKicks; ++kick) {
    const uint64_t cell =
        bucket * kSlotsPerBucket + kick_rng_.NextBelow(kSlotsPerBucket);
    const uint64_t victim = fingerprints_.Get(cell);
    const uint64_t victim_value = Value(cell);
    SetCell(cell, fp, value);
    if (may_need_unwind) path.push_back(cell);
    fp = victim;
    value = victim_value;
    bucket = AltIndex(bucket, fp);
    if (TryPlace(bucket, fp, value)) {
      *kicks = static_cast<uint64_t>(kick) + 1;
      ++num_keys_;
      return true;
    }
  }
  // Both the stash landing and the unwound failure walked the full chain.
  *kicks = kMaxKicks;
  if (may_need_unwind) {
    // Walk the chain backwards: each touched cell holds what was placed
    // into it and gets back the victim it lost, which is exactly what was
    // left homeless one step later.
    for (size_t i = path.size(); i-- > 0;) {
      const uint64_t placed = fingerprints_.Get(path[i]);
      const uint64_t placed_value = Value(path[i]);
      SetCell(path[i], fp, value);
      fp = placed;
      value = placed_value;
    }
    return false;  // Table bit-for-bit as before; the insert never happened.
  }
  SetStashEntry(stash_size_, {bucket, fp, value});
  Release(stash_size_, stash_size_ + 1);
  ++num_keys_;
  return true;
}

bool CuckooTable::StashHolds(const Probe& p) const {
  const size_t n = Acquire(stash_size_);
  for (size_t i = 0; i < n; ++i) {
    const StashEntry e{Acquire(stash_[i].bucket), Acquire(stash_[i].fp), 0};
    if (Holds(e, p)) return true;
  }
  return false;
}

void CuckooTable::ContainsTile(const Probe* p, size_t n, uint8_t* out) const {
  if (!layout_.PackedEligible()) {
    for (size_t j = 0; j < n; ++j) out[j] = Contains(p[j]);
    return;
  }
  uint64_t fp[kTile];
  uint64_t bit1[kTile];
  uint64_t bit2[kTile];
  for (size_t j = 0; j < n; ++j) {
    fp[j] = p[j].fp;
    bit1[j] = fingerprints_.BitOffset(p[j].i1 * kSlotsPerBucket);
    bit2[j] = fingerprints_.BitOffset(p[j].i2 * kSlotsPerBucket);
  }
  // One kernel call scans both buckets of every key.
  simd::ActiveCuckooKernel().contains_tile(fingerprints_.Words(), bit1, bit2,
                                           fp, layout_, n, out);
  // Stash fix-up only for misses, and only when a stash exists at all (it
  // is empty until an insert dead-ends, i.e. almost always).
  if (stash_size_ == 0) return;
  for (size_t j = 0; j < n; ++j) {
    if (!out[j]) out[j] = StashHolds(p[j]);
  }
}

uint64_t CuckooTable::Count(const Probe& p) const {
  uint64_t count = Popcount(MatchMask(p.i1, p.fp));
  if (p.i2 != p.i1) count += Popcount(MatchMask(p.i2, p.fp));
  for (const StashEntry& e : Stash()) {
    count += InStash(e, p.i1, p.fp);
    if (p.i2 != p.i1) count += InStash(e, p.i2, p.fp);
  }
  return count;
}

std::vector<uint64_t> CuckooTable::Values(const Probe& p) const {
  std::vector<uint64_t> out;
  const uint32_t m1 = MatchMask(p.i1, p.fp);
  const uint32_t m2 = p.i2 != p.i1 ? MatchMask(p.i2, p.fp) : 0;
  for (int s = 0; (m1 | m2) >> s != 0; ++s) {
    if ((m1 >> s) & 1) out.push_back(Value(p.i1 * kSlotsPerBucket + s));
    if ((m2 >> s) & 1) out.push_back(Value(p.i2 * kSlotsPerBucket + s));
  }
  for (const StashEntry& e : Stash()) {
    if (Holds(e, p)) out.push_back(e.value);
  }
  return out;
}

bool CuckooTable::Erase(const Probe& p) {
  const uint32_t m1 = MatchMask(p.i1, p.fp);
  const uint32_t m2 = MatchMask(p.i2, p.fp);
  if ((m1 | m2) == 0) return EraseFromStash(p, 0);
  // Slot s of i1 comes before slot s of i2, as in the per-slot scan.
  const int s1 = m1 ? CountTrailingZeros(m1) : kSlotsPerBucket;
  const int s2 = m2 ? CountTrailingZeros(m2) : kSlotsPerBucket;
  ClearCell(s1 <= s2 ? p.i1 * kSlotsPerBucket + s1
                     : p.i2 * kSlotsPerBucket + s2);
  return true;
}

bool CuckooTable::EraseValue(const Probe& p, uint64_t value) {
  for (uint64_t bucket : {p.i1, p.i2}) {
    // The mask is exact on fingerprints; the value plane picks the cell.
    for (uint32_t m = MatchMask(bucket, p.fp); m != 0; m &= m - 1) {
      const uint64_t cell = bucket * kSlotsPerBucket + CountTrailingZeros(m);
      if (Value(cell) == value) {
        ClearCell(cell);
        return true;
      }
    }
    if (p.i2 == p.i1) break;
  }
  return EraseFromStash(p, value);
}

bool CuckooTable::EraseFromStash(const Probe& p, uint64_t value) {
  for (size_t i = 0; i < stash_size_; ++i) {
    if (Holds(stash_[i], p) && stash_[i].value == value) {
      // Close the gap in place, so the stash keeps its arrival order.
      for (size_t j = i + 1; j < stash_size_; ++j) {
        SetStashEntry(j - 1, stash_[j]);
      }
      Release(stash_size_, stash_size_ - 1);
      --num_keys_;
      return true;
    }
  }
  return false;
}

bool CuckooTable::Save(std::ostream& os) const {
  WriteI32(os, fingerprint_bits_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_buckets_);
  WriteU64(os, num_keys_);
  fingerprints_.Save(os);
  if (HasValues()) values_.Save(os);
  WriteU64(os, stash_size_);
  for (const StashEntry& e : Stash()) {
    if (HasValues()) {
      WriteU64(os, e.bucket);
      WriteU64(os, e.fp);
      WriteU64(os, e.value);
    } else {
      WriteU64(os, (e.bucket << fingerprint_bits_) | e.fp);
    }
  }
  return os.good();
}

bool CuckooTable::Load(std::istream& is) {
  // A fresh table of this one's shape (value plane or not) and kick seed.
  CuckooTable fresh(0, 1, HasValues() ? 1 : 0, 0, kick_seed_);
  const int& f = fresh.fingerprint_bits_;
  const uint64_t& buckets = fresh.num_buckets_;
  if (!ReadI32(is, &fresh.fingerprint_bits_) || f < 1 || f > 60 ||
      !ReadU64(is, &fresh.hash_seed_) ||
      !ReadU64Capped(is, &fresh.num_buckets_,
                     kMaxSnapshotElements / kSlotsPerBucket) ||
      buckets == 0 || (buckets & (buckets - 1)) != 0 ||
      !ReadU64(is, &fresh.num_keys_) || !fresh.fingerprints_.Load(is) ||
      fresh.num_cells() != buckets * kSlotsPerBucket ||
      fresh.fingerprints_.width() != f) {
    return false;
  }
  if (HasValues() &&
      (!fresh.values_.Load(is) || fresh.values_.size() != fresh.num_cells() ||
       fresh.values_.width() < 1)) {
    return false;
  }
  uint64_t stash_size;
  if (!ReadU64Capped(is, &stash_size, kMaxStash)) return false;
  fresh.stash_size_ = stash_size;
  for (size_t i = 0; i < stash_size; ++i) {
    StashEntry& e = fresh.stash_[i];
    if (HasValues()) {
      if (!ReadU64(is, &e.bucket) || !ReadU64(is, &e.fp) ||
          !ReadU64(is, &e.value)) {
        return false;
      }
    } else {
      uint64_t packed;
      if (!ReadU64(is, &packed)) return false;
      e = {packed >> f, packed & LowMask(f), 0};
    }
  }
  fresh.layout_ = simd::BucketLayout::Make(f);
  // The kick RNG only drives future inserts; reseed it as the constructor
  // does.
  fresh.kick_rng_ = SplitMix64(fresh.hash_seed_ * kick_seed_.mul +
                               kick_seed_.add);
  return CommitLoaded(*this, std::move(fresh));
}

bool CuckooTable::CheckInvariants() const {
  // Each stash entry names a bucket of the table and a nonzero f-bit
  // fingerprint, and each key is one occupied cell or one stash entry.
  for (const StashEntry& e : Stash()) {
    if (e.bucket >= num_buckets_ || e.fp == 0 ||
        e.fp > LowMask(fingerprint_bits_)) {
      return false;
    }
  }
  uint64_t occupied = 0;
  for (uint64_t i = 0; i < num_cells(); ++i) {
    occupied += fingerprints_.Get(i) != 0;
  }
  return num_keys_ == occupied + stash_size_;
}

}  // namespace bbf
