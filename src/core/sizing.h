#ifndef BBF_CORE_SIZING_H_
#define BBF_CORE_SIZING_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "util/bits.h"

namespace bbf {

/// Sizing math shared by the factory, the families, and the benches —
/// previously duplicated (with a drifting ln2 approximation) across
/// factory.cc and the bloom family.

/// Fingerprint width for a fingerprint filter probing `probes`
/// slot-candidates per query: eps ~= probes / 2^f, so f = lg(probes/eps).
inline int FingerprintBitsFor(double fpr, double probes) {
  return std::max(2, static_cast<int>(std::ceil(std::log2(probes / fpr))));
}

/// Optimal Bloom bits per key for a target false-positive rate:
/// m/n = -ln(eps) / ln(2)^2 (§2 of the paper).
inline double BloomBitsFor(double fpr) {
  return -std::log(fpr) / (std::numbers::ln2 * std::numbers::ln2);
}

/// Optimal Bloom probe count for a bits-per-key budget: k = (m/n) ln 2.
inline int OptimalBloomHashes(double bits_per_key) {
  return std::max(1, static_cast<int>(std::round(bits_per_key *
                                                 std::numbers::ln2)));
}

/// Quotient-family geometry (§2.1). Slot-count exponent for `n` keys at
/// load `max_load`: the next power of two, and never fewer than 2^6 slots.
inline int QuotientBitsFor(uint64_t n, double max_load) {
  return std::max(
      6, BitWidth(NextPow2(static_cast<uint64_t>(std::ceil(n / max_load))) -
                  1));
}

/// Remainder width for a target FPR: eps ~= load * 2^-r at `max_load`.
inline int RemainderBitsFor(double fpr, double max_load) {
  return std::max(1, static_cast<int>(std::ceil(-std::log2(fpr / max_load))));
}

/// Splits hash `h` into a q-bit quotient (the bits above the remainder)
/// and an r-bit remainder (the low bits).
inline void SplitFingerprint(uint64_t h, int q_bits, int r_bits,
                             uint64_t* fq, uint64_t* fr) {
  *fq = (h >> r_bits) & LowMask(q_bits);
  *fr = h & LowMask(r_bits);
}

}  // namespace bbf

#endif  // BBF_CORE_SIZING_H_
