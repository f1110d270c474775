#include "staticf/ribbon_filter.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/bits.h"
#include "util/serialize.h"

namespace bbf {

RibbonFilter::RibbonFilter(const std::vector<uint64_t>& keys,
                           int fingerprint_bits)
    : fingerprint_bits_(fingerprint_bits) {
  // Hash-once boundary: mix every raw key here (bijective, so dedup is
  // preserved) and build over canonical values.
  std::vector<uint64_t> unique;
  unique.reserve(keys.size());
  for (uint64_t k : keys) unique.push_back(HashedKey(k).value());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  num_keys_ = unique.size();

  // Start at 95% load; each failed attempt backs the load off by 3%.
  // (The published ribbon instead "bumps" failed rows into an overflow
  // layer; backing off trades a little space for a much simpler build.)
  double load = 0.95;
  uint64_t total_slots = 0;
  std::vector<uint64_t> coeff;
  std::vector<uint64_t> rhs;
  for (seed_ = 0x5eed;; ++seed_, load = std::max(0.5, load - 0.03)) {
    ++build_attempts_;
    num_starts_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(unique.size() / load) + 1);
    total_slots = num_starts_ + kRibbonWidth;
    coeff.resize(total_slots);
    rhs.resize(total_slots);
    std::fill(coeff.begin(), coeff.end(), 0);
    std::fill(rhs.begin(), rhs.end(), 0);
    bool ok = true;
    for (uint64_t stored : unique) {
      const HashedKey key = HashedKey::FromMix(stored);
      uint64_t pos = StartOf(key);
      uint64_t c = CoeffOf(key);  // Bit 0 always set.
      uint64_t r = FingerprintOf(key);
      // Incremental Gaussian elimination within the band.
      while (true) {
        if (coeff[pos] == 0) {
          coeff[pos] = c;
          rhs[pos] = r;
          break;
        }
        c ^= coeff[pos];
        r ^= rhs[pos];
        if (c == 0) {
          ok = (r == 0);  // Redundant row is fine; contradiction is not.
          break;
        }
        const int shift = CountTrailingZeros(c);
        c >>= shift;
        pos += shift;
      }
      if (!ok) break;
    }
    if (!ok) continue;
    // Back-substitution, highest slot first.
    solution_ = CompactVector(total_slots, fingerprint_bits);
    for (uint64_t pos = total_slots; pos-- > 0;) {
      if (coeff[pos] == 0) continue;
      uint64_t acc = rhs[pos];
      uint64_t c = coeff[pos] & ~uint64_t{1};
      while (c != 0) {
        const int j = CountTrailingZeros(c);
        acc ^= solution_.Get(pos + j);
        c &= c - 1;
      }
      solution_.Set(pos, acc);
    }
    return;
  }
}

RibbonFilter RibbonFilter::ForFpr(const std::vector<uint64_t>& keys,
                                  double fpr) {
  const int bits =
      std::max(2, static_cast<int>(std::ceil(-std::log2(fpr))));
  return RibbonFilter(keys, bits);
}

uint64_t RibbonFilter::StartOf(HashedKey key) const {
  return FastRange64(key.Derive(seed_), num_starts_);
}

uint64_t RibbonFilter::CoeffOf(HashedKey key) const {
  return key.Derive(seed_ + 1) | 1;
}

uint64_t RibbonFilter::FingerprintOf(HashedKey key) const {
  return key.Derive(seed_ + 2) & LowMask(fingerprint_bits_);
}

bool RibbonFilter::Contains(HashedKey key) const {
  const uint64_t start = StartOf(key);
  uint64_t c = CoeffOf(key);
  uint64_t acc = 0;
  while (c != 0) {
    const int j = CountTrailingZeros(c);
    acc ^= solution_.Get(start + j);
    c &= c - 1;
  }
  return acc == FingerprintOf(key);
}

bool RibbonFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, fingerprint_bits_);
  WriteU64(os, num_starts_);
  WriteU64(os, seed_);
  WriteU64(os, num_keys_);
  solution_.Save(os);
  return os.good();
}

bool RibbonFilter::LoadPayload(std::istream& is) {
  // The build-attempt stat starts at 0 after a reload.
  RibbonFilter fresh({}, 1);
  if (!ReadI32(is, &fresh.fingerprint_bits_) || fresh.fingerprint_bits_ < 1 ||
      fresh.fingerprint_bits_ > 64 ||
      !ReadU64Capped(is, &fresh.num_starts_, kMaxSnapshotElements) ||
      fresh.num_starts_ == 0 || !ReadU64(is, &fresh.seed_) ||
      !ReadU64(is, &fresh.num_keys_) || fresh.num_keys_ > fresh.num_starts_ ||
      !fresh.solution_.Load(is) ||
      fresh.solution_.size() != fresh.num_starts_ + kRibbonWidth ||
      fresh.solution_.width() != fresh.fingerprint_bits_) {
    return false;
  }
  fresh.build_attempts_ = 0;
  return CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
