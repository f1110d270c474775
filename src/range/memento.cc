#include "range/memento.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/metrics_sink.h"
#include "core/sizing.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

MementoFilter::MementoFilter(int q_bits, int r_bits, int memento_bits,
                             uint64_t hash_seed)
    : q_bits_(q_bits),
      r_bits_(r_bits),
      m_bits_(memento_bits),
      hash_seed_(hash_seed),
      num_quotients_(uint64_t{1} << q_bits),
      table_(q_bits, r_bits + memento_bits) {}

MementoFilter MementoFilter::ForCapacity(uint64_t n, double fpr,
                                         int memento_bits) {
  const double needed = std::log2(2.0 * kMaxLoadFactor / fpr);
  const int r =
      std::clamp(static_cast<int>(std::ceil(needed)), 1, 64 - memento_bits);
  return MementoFilter(QuotientBitsFor(n, kMaxLoadFactor), r, memento_bits);
}

MementoFilter MementoFilter::ForBitsPerKey(uint64_t n, double bits_per_key,
                                           int memento_bits) {
  // bits/key = (2 metadata + r + m + 0.25 offset) / load; solve for r.
  const int r = std::clamp(
      static_cast<int>(std::lround(bits_per_key * kMaxLoadFactor - 2.25 -
                                   memento_bits)),
      1, 64 - memento_bits);
  return MementoFilter(QuotientBitsFor(n, kMaxLoadFactor), r, memento_bits);
}

void MementoFilter::Fingerprint(uint64_t prefix, uint64_t* fq,
                                uint64_t* fr) const {
  SplitFingerprint(Hash64(prefix, hash_seed_), q_bits_, r_bits_, fq, fr);
}

bool MementoFilter::AddKey(uint64_t key) {
  const uint64_t memento = key & LowMask(m_bits_);
  const uint64_t prefix = key >> m_bits_;
  while (true) {
    if (static_cast<double>(num_keys_) <
        kMaxLoadFactor * static_cast<double>(num_quotients_)) {
      uint64_t fq;
      uint64_t fr;
      Fingerprint(prefix, &fq, &fr);
      if (table_.InsertValue(fq, (fr << m_bits_) | memento,
                             /*sorted=*/true)) {
        ++num_keys_;
        return true;
      }
    }
    if (!Expand()) return false;
  }
}

bool MementoFilter::ProbePrefix(uint64_t prefix, uint64_t m_lo,
                                uint64_t m_hi) const {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(prefix, &fq, &fr);
  const uint64_t lo = (fr << m_bits_) | m_lo;
  const uint64_t hi = (fr << m_bits_) | m_hi;
  bool hit = false;
  // Sorted run: stop at the first value past the window.
  const uint64_t scanned = table_.ScanRun(fq, [&](uint64_t v) {
    if (v > hi) return false;
    if (v >= lo) {
      hit = true;
      return false;
    }
    return true;
  });
  if (sink_ != nullptr) sink_->OnProbeLength(scanned);
  return hit;
}

bool MementoFilter::MayContainRange(uint64_t lo, uint64_t hi) const {
  if (lo > hi) return false;
  const uint64_t mask = LowMask(m_bits_);
  const uint64_t p_lo = lo >> m_bits_;
  const uint64_t p_hi = hi >> m_bits_;
  if (p_lo == p_hi) return ProbePrefix(p_lo, lo & mask, hi & mask);
  if (ProbePrefix(p_lo, lo & mask, mask)) return true;
  if (ProbePrefix(p_hi, 0, hi & mask)) return true;
  // Fully-covered interior prefixes need only fingerprint presence. Very
  // wide ranges give up and admit, like prefix-bloom and Grafite.
  if (p_hi - p_lo - 1 > kMaxInteriorProbes) return true;
  for (uint64_t p = p_lo + 1; p < p_hi; ++p) {
    if (ProbePrefix(p, 0, mask)) return true;
  }
  return false;
}

bool MementoFilter::Expand() {
  // The table's top payload bit is the remainder's top bit: the doubling
  // re-splits the constant (q + r)-bit fingerprints, mementos riding along.
  if (r_bits_ <= 1 || !table_.Double()) return false;
  ++q_bits_;
  --r_bits_;
  num_quotients_ <<= 1;
  ++expansions_;
  if (sink_ != nullptr) sink_->OnExpansion();
  return true;
}

bool MementoFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, q_bits_);
  WriteI32(os, r_bits_);
  WriteI32(os, m_bits_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_keys_);
  WriteU64(os, expansions_);
  return table_.SaveBody(os);
}

bool MementoFilter::LoadPayload(std::istream& is) {
  MementoFilter fresh(1, 1, 1);
  if (!ReadI32(is, &fresh.q_bits_) || fresh.q_bits_ < 1 ||
      fresh.q_bits_ > 38 || !ReadI32(is, &fresh.r_bits_) ||
      fresh.r_bits_ < 1 || fresh.r_bits_ > 32 ||
      !ReadI32(is, &fresh.m_bits_) || fresh.m_bits_ < 1 ||
      fresh.m_bits_ > 32 || !ReadU64(is, &fresh.hash_seed_) ||
      !ReadU64(is, &fresh.num_keys_) || !ReadU64(is, &fresh.expansions_) ||
      !fresh.table_.ParseBody(is, fresh.q_bits_,
                              fresh.r_bits_ + fresh.m_bits_)) {
    return false;
  }
  fresh.num_quotients_ = uint64_t{1} << fresh.q_bits_;
  return CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
