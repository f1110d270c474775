#include "cuckoo/adaptive_cuckoo_filter.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/metrics_sink.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

AdaptiveCuckooFilter::AdaptiveCuckooFilter(uint64_t expected_keys,
                                           int fingerprint_bits,
                                           int selector_bits,
                                           uint64_t hash_seed)
    : fingerprint_bits_(fingerprint_bits),
      selector_bits_(selector_bits),
      hash_seed_(hash_seed),
      kick_rng_(hash_seed * 31337 + 5) {
  const uint64_t cells =
      std::max<uint64_t>(kSlotsPerBucket * 2,
                         static_cast<uint64_t>(expected_keys / 0.90));
  num_buckets_ = NextPow2((cells + kSlotsPerBucket - 1) / kSlotsPerBucket);
  layout_ = simd::BucketLayout::Make(fingerprint_bits);
  fingerprints_ =
      CompactVector(num_buckets_ * kSlotsPerBucket, fingerprint_bits);
  selectors_ = CompactVector(num_buckets_ * kSlotsPerBucket, selector_bits);
  remote_keys_.resize(num_buckets_ * kSlotsPerBucket, 0);
}

uint64_t AdaptiveCuckooFilter::FingerprintOf(HashedKey key,
                                             uint64_t selector) const {
  const uint64_t fp = key.Derive(hash_seed_ + 11 + selector) &
                      LowMask(fingerprint_bits_);
  return fp == 0 ? 1 : fp;
}

uint64_t AdaptiveCuckooFilter::Index1(HashedKey key) const {
  return key.Derive(hash_seed_ + 1) & (num_buckets_ - 1);
}

uint64_t AdaptiveCuckooFilter::Index2(HashedKey key) const {
  // Location hashes are key-based (not fingerprint-based): the remote
  // store lets relocation re-derive from the original key, unlike a
  // plain CF.
  const uint64_t i2 = key.Derive(hash_seed_ + 2) & (num_buckets_ - 1);
  return i2 == Index1(key) ? (i2 ^ 1) & (num_buckets_ - 1) : i2;
}

bool AdaptiveCuckooFilter::SlotMatches(uint64_t bucket, int slot,
                                       HashedKey key) const {
  const uint64_t idx = CellIndex(bucket, slot);
  const uint64_t fp = fingerprints_.Get(idx);
  if (fp == 0) return false;
  return fp == FingerprintOf(key, selectors_.Get(idx));
}

bool AdaptiveCuckooFilter::TryPlace(uint64_t bucket, HashedKey key) {
  for (int s = 0; s < kSlotsPerBucket; ++s) {
    const uint64_t idx = CellIndex(bucket, s);
    if (fingerprints_.Get(idx) == 0) {
      fingerprints_.Set(idx, FingerprintOf(key, 0));
      selectors_.Set(idx, 0);
      remote_keys_[idx] = key.value();
      return true;
    }
  }
  return false;
}

bool AdaptiveCuckooFilter::Insert(HashedKey key) {
  if (TryPlace(Index1(key), key) || TryPlace(Index2(key), key)) {
    ++num_keys_;
    return true;
  }
  // Cuckoo eviction on original keys via the remote store. With a full
  // stash the chain may still land every key, so record each displaced
  // slot's (fingerprint, selector) and unwind on failure — dropping a
  // victim would manufacture a false negative, and the selector must come
  // back too or an adapted slot would forget its adaptation.
  struct KickRecord {
    uint64_t idx;
    uint64_t fp;
    uint64_t selector;
  };
  const bool may_need_unwind = stash_.size() >= kMaxStash;
  std::vector<KickRecord> path;
  if (may_need_unwind) path.reserve(kMaxKicks);
  HashedKey cur = key;
  uint64_t bucket = kick_rng_.NextBelow(2) ? Index1(key) : Index2(key);
  for (int kick = 0; kick < kMaxKicks; ++kick) {
    const int slot = static_cast<int>(kick_rng_.NextBelow(kSlotsPerBucket));
    const uint64_t idx = CellIndex(bucket, slot);
    const HashedKey victim = HashedKey::FromMix(remote_keys_[idx]);
    if (may_need_unwind) {
      path.push_back({idx, fingerprints_.Get(idx), selectors_.Get(idx)});
    }
    fingerprints_.Set(idx, FingerprintOf(cur, 0));
    selectors_.Set(idx, 0);
    remote_keys_[idx] = cur.value();
    cur = victim;
    bucket = (bucket == Index1(cur)) ? Index2(cur) : Index1(cur);
    if (TryPlace(bucket, cur)) {
      ++num_keys_;
      return true;
    }
  }
  if (may_need_unwind) {
    // Reverse the chain: each touched slot holds the key placed into it;
    // hand back the victim (left homeless one step later) with its
    // original fingerprint/selector pair.
    for (size_t i = path.size(); i-- > 0;) {
      const uint64_t placed = remote_keys_[path[i].idx];
      fingerprints_.Set(path[i].idx, path[i].fp);
      selectors_.Set(path[i].idx, path[i].selector);
      remote_keys_[path[i].idx] = cur.value();
      cur = HashedKey::FromMix(placed);
    }
    return false;  // State exactly as before the attempt.
  }
  // Exact canonical keys: the stash never false-positives.
  stash_.push_back(cur.value());
  ++num_keys_;
  return true;
}

bool AdaptiveCuckooFilter::ContainsInBuckets(HashedKey key, uint64_t i1,
                                             uint64_t i2) const {
  // Selectors only move off zero when a false positive is reported, so in
  // the steady state every slot's fingerprint is H_0(key) and the whole
  // bucket pair collapses to one packed-word kernel compare. Any adapted
  // slot (nonzero selector run) falls back to the per-slot scan that
  // honours each slot's own selector.
  if (layout_.PackedEligible() &&
      (selectors_.GetRun4(i1 * kSlotsPerBucket) |
       selectors_.GetRun4(i2 * kSlotsPerBucket)) == 0) {
    if (simd::ActiveCuckooKernel().contains2(
            fingerprints_.GetRun4(i1 * kSlotsPerBucket),
            fingerprints_.GetRun4(i2 * kSlotsPerBucket),
            FingerprintOf(key, 0), layout_)) {
      return true;
    }
  } else {
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      if (SlotMatches(i1, s, key) || SlotMatches(i2, s, key)) return true;
    }
  }
  for (uint64_t k : stash_) {
    if (k == key.value()) return true;
  }
  return false;
}

bool AdaptiveCuckooFilter::Contains(HashedKey key) const {
  return ContainsInBuckets(key, Index1(key), Index2(key));
}

void AdaptiveCuckooFilter::ContainsMany(std::span<const HashedKey> keys,
                                        uint8_t* out) const {
  constexpr size_t kTile = 32;
  uint64_t i1[kTile];
  uint64_t i2[kTile];
  for (size_t base = 0; base < keys.size(); base += kTile) {
    const size_t n = std::min(kTile, keys.size() - base);
    // Pass 1: request both candidate buckets of every key — fingerprints
    // and selectors live in separate planes, so both are prefetched.
    for (size_t j = 0; j < n; ++j) {
      i1[j] = Index1(keys[base + j]);
      i2[j] = Index2(keys[base + j]);
      fingerprints_.Prefetch(i1[j] * kSlotsPerBucket, kSlotsPerBucket);
      fingerprints_.Prefetch(i2[j] * kSlotsPerBucket, kSlotsPerBucket);
      selectors_.Prefetch(i1[j] * kSlotsPerBucket, kSlotsPerBucket);
      selectors_.Prefetch(i2[j] * kSlotsPerBucket, kSlotsPerBucket);
    }
    // Pass 2: probe the now-resident buckets.
    for (size_t j = 0; j < n; ++j) {
      out[base + j] = ContainsInBuckets(keys[base + j], i1[j], i2[j]) ? 1 : 0;
    }
  }
}

bool AdaptiveCuckooFilter::Erase(HashedKey key) {
  for (uint64_t bucket : {Index1(key), Index2(key)}) {
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      const uint64_t idx = CellIndex(bucket, s);
      // Exact delete: the remote store disambiguates colliding twins.
      if (fingerprints_.Get(idx) != 0 && remote_keys_[idx] == key.value()) {
        fingerprints_.Set(idx, 0);
        selectors_.Set(idx, 0);
        remote_keys_[idx] = 0;
        --num_keys_;
        return true;
      }
    }
  }
  for (size_t i = 0; i < stash_.size(); ++i) {
    if (stash_[i] == key.value()) {
      stash_.erase(stash_.begin() + i);
      --num_keys_;
      return true;
    }
  }
  return false;
}

bool AdaptiveCuckooFilter::ReportFalsePositive(HashedKey key) {
  const uint64_t max_selector = LowMask(selector_bits_);
  for (uint64_t bucket : {Index1(key), Index2(key)}) {
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      const uint64_t idx = CellIndex(bucket, s);
      if (!SlotMatches(bucket, s, key)) continue;
      // True positive, not an FP.
      if (remote_keys_[idx] == key.value()) continue;
      // Bump the selector and recompute from the resident's true key.
      const uint64_t sel = (selectors_.Get(idx) + 1) & max_selector;
      selectors_.Set(idx, sel);
      fingerprints_.Set(
          idx, FingerprintOf(HashedKey::FromMix(remote_keys_[idx]), sel));
      ++adaptations_;
      if (sink_ != nullptr) sink_->OnAdapt();
    }
  }
  return !Contains(key);
}

bool AdaptiveCuckooFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, fingerprint_bits_);
  WriteI32(os, selector_bits_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_buckets_);
  WriteU64(os, num_keys_);
  WriteU64(os, adaptations_);
  fingerprints_.Save(os);
  selectors_.Save(os);
  for (uint64_t k : remote_keys_) WriteU64(os, k);
  WriteU64(os, stash_.size());
  for (uint64_t k : stash_) WriteU64(os, k);
  return os.good();
}

bool AdaptiveCuckooFilter::LoadPayload(std::istream& is) {
  AdaptiveCuckooFilter fresh(0, 1);
  const int& f = fresh.fingerprint_bits_;
  const int& sel = fresh.selector_bits_;
  const uint64_t& buckets = fresh.num_buckets_;
  if (!ReadI32(is, &fresh.fingerprint_bits_) || f < 1 || f > 60 ||
      !ReadI32(is, &fresh.selector_bits_) || sel < 1 || sel > 16 ||
      !ReadU64(is, &fresh.hash_seed_) ||
      !ReadU64Capped(is, &fresh.num_buckets_,
                     kMaxSnapshotElements / kSlotsPerBucket) ||
      buckets == 0 || (buckets & (buckets - 1)) != 0 ||
      !ReadU64(is, &fresh.num_keys_) || !ReadU64(is, &fresh.adaptations_)) {
    return false;
  }
  const uint64_t cells = buckets * kSlotsPerBucket;
  if (!fresh.fingerprints_.Load(is) || fresh.fingerprints_.size() != cells ||
      fresh.fingerprints_.width() != f || !fresh.selectors_.Load(is) ||
      fresh.selectors_.size() != cells || fresh.selectors_.width() != sel) {
    return false;
  }
  fresh.remote_keys_.resize(cells);
  for (uint64_t& k : fresh.remote_keys_) {
    if (!ReadU64(is, &k)) return false;
  }
  uint64_t stash_size;
  if (!ReadU64Capped(is, &stash_size, kMaxStash)) return false;
  fresh.stash_.resize(stash_size);
  for (uint64_t& k : fresh.stash_) {
    if (!ReadU64(is, &k)) return false;
  }
  fresh.layout_ = simd::BucketLayout::Make(f);
  fresh.kick_rng_ = SplitMix64(fresh.hash_seed_ * 31337 + 5);
  return CommitLoaded(*this, std::move(fresh));
}

bool AdaptiveCuckooFilter::CheckInvariants() const {
  uint64_t occupied = 0;
  for (uint64_t bucket = 0; bucket < num_buckets_; ++bucket) {
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      const uint64_t idx = CellIndex(bucket, s);
      const uint64_t fp = fingerprints_.Get(idx);
      if (fp == 0) {
        if (selectors_.Get(idx) != 0 || remote_keys_[idx] != 0) return false;
        continue;
      }
      ++occupied;
      // A lookup of the cell's key probes its two buckets and matches the
      // fingerprint under the cell's selector; anything else is a false
      // negative.
      const HashedKey key = HashedKey::FromMix(remote_keys_[idx]);
      if (fp != FingerprintOf(key, selectors_.Get(idx)) ||
          (bucket != Index1(key) && bucket != Index2(key))) {
        return false;
      }
    }
  }
  return num_keys_ == occupied + stash_.size();
}

}  // namespace bbf
