#include "staticf/xor_filter.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "staticf/peeling.h"
#include "util/bits.h"
#include "util/serialize.h"

namespace bbf {

XorFilter::XorFilter(const std::vector<uint64_t>& keys, int fingerprint_bits) {
  // Hash-once boundary: mix every raw key here, then build purely over
  // canonical values (Mix64 is bijective, so dedup is preserved).
  std::vector<uint64_t> unique;
  unique.reserve(keys.size());
  for (uint64_t k : keys) unique.push_back(HashedKey(k).value());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  num_keys_ = unique.size();

  const uint32_t capacity = XorPeeler::CapacityFor(unique.size());
  segment_len_ = capacity / 3;
  table_ = CompactVector(capacity, fingerprint_bits);

  std::vector<PeelEntry> order;
  for (seed_ = 1;; ++seed_) {
    ++build_attempts_;
    if (XorPeeler::Peel(unique, capacity, seed_, &order)) break;
  }
  // Back-substitute in reverse peel order: each key's owned slot is free
  // to absorb whatever makes the 3-way XOR equal its fingerprint.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    uint32_t s[3];
    XorPeeler::Slots(it->key, segment_len_, seed_, s);
    uint64_t v = FingerprintOf(HashedKey::FromMix(it->key));
    for (int i = 0; i < 3; ++i) {
      if (s[i] != it->slot) v ^= table_.Get(s[i]);
    }
    table_.Set(it->slot, v);
  }
}

XorFilter XorFilter::ForFpr(const std::vector<uint64_t>& keys, double fpr) {
  const int bits =
      std::max(2, static_cast<int>(std::ceil(-std::log2(fpr))));
  return XorFilter(keys, bits);
}

uint64_t XorFilter::FingerprintOf(HashedKey key) const {
  return key.Derive(seed_ + 0xF1A9) & LowMask(table_.width());
}

bool XorFilter::Contains(HashedKey key) const {
  uint32_t s[3];
  XorPeeler::Slots(key.value(), segment_len_, seed_, s);
  const uint64_t v =
      table_.Get(s[0]) ^ table_.Get(s[1]) ^ table_.Get(s[2]);
  return v == FingerprintOf(key);
}

bool XorFilter::SavePayload(std::ostream& os) const {
  WriteU64(os, seed_);
  WriteU64(os, segment_len_);
  WriteU64(os, num_keys_);
  table_.Save(os);
  return os.good();
}

bool XorFilter::LoadPayload(std::istream& is) {
  // Construction always makes exactly three equal segments, and peeling
  // needs capacity > n. The build-attempt stat starts at 0 after a reload.
  XorFilter fresh({}, 1);
  uint64_t seg;
  if (!ReadU64(is, &fresh.seed_) ||
      !ReadU64Capped(is, &seg, uint64_t{0xFFFFFFFF} / 3) || seg == 0 ||
      !ReadU64(is, &fresh.num_keys_) || !fresh.table_.Load(is) ||
      fresh.table_.size() != seg * 3 || fresh.table_.width() < 1 ||
      fresh.num_keys_ > fresh.table_.size()) {
    return false;
  }
  fresh.segment_len_ = static_cast<uint32_t>(seg);
  fresh.build_attempts_ = 0;
  return CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
