#include "adaptive/adaptive_quotient_filter.h"

#include <algorithm>
#include <utility>

#include "core/metrics_sink.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

AdaptiveQuotientFilter::AdaptiveQuotientFilter(int q_bits, int r_bits,
                                               uint64_t hash_seed)
    : base_(q_bits, r_bits, hash_seed), hash_seed_(hash_seed) {}

AdaptiveQuotientFilter AdaptiveQuotientFilter::ForCapacity(uint64_t n,
                                                           double fpr) {
  const QuotientFilter sized = QuotientFilter::ForCapacity(n, fpr);
  return AdaptiveQuotientFilter(sized.q_bits(), sized.r_bits());
}

uint64_t AdaptiveQuotientFilter::FingerprintKey(HashedKey key) const {
  uint64_t fq;
  uint64_t fr;
  base_.Fingerprint(key, &fq, &fr);
  return (fq << base_.r_bits()) | fr;
}

uint64_t AdaptiveQuotientFilter::ExtensionBitsOf(HashedKey key,
                                                 int len) const {
  // Extension bits come from an independent derived stream so they extend
  // the fingerprint regardless of the base filter's geometry.
  return key.Derive(hash_seed_ + 0xE47) & LowMask(len);
}

bool AdaptiveQuotientFilter::Insert(HashedKey key) {
  if (!base_.Insert(key)) return false;
  const uint64_t f = FingerprintKey(key);
  remote_[f].push_back(key.value());
  const auto it = extensions_.find(f);
  if (it != extensions_.end()) {
    // This fingerprint already adapted: give the new resident an extension
    // of the same length as the longest present, so Contains keeps
    // consulting extensions consistently.
    int len = 1;
    for (const Extension& e : it->second) len = std::max(len, e.len);
    it->second.push_back(
        Extension{key.value(), len, ExtensionBitsOf(key, len)});
  }
  return true;
}

bool AdaptiveQuotientFilter::Contains(HashedKey key) const {
  if (!base_.Contains(key)) return false;
  const uint64_t f = FingerprintKey(key);
  const auto it = extensions_.find(f);
  if (it == extensions_.end()) return true;  // Never adapted: plain hit.
  for (const Extension& e : it->second) {
    if (ExtensionBitsOf(key, e.len) == e.bits) return true;
  }
  return false;
}

bool AdaptiveQuotientFilter::Erase(HashedKey key) {
  const uint64_t f = FingerprintKey(key);
  const auto rit = remote_.find(f);
  if (rit == remote_.end()) return false;
  auto& keys = rit->second;
  const auto kit = std::find(keys.begin(), keys.end(), key.value());
  if (kit == keys.end()) return false;  // Exact deletes via the dictionary.
  keys.erase(kit);
  if (keys.empty()) remote_.erase(rit);
  const auto eit = extensions_.find(f);
  if (eit != extensions_.end()) {
    auto& exts = eit->second;
    for (size_t i = 0; i < exts.size(); ++i) {
      if (exts[i].key == key.value()) {
        exts.erase(exts.begin() + i);
        break;
      }
    }
    if (exts.empty()) extensions_.erase(eit);
  }
  return base_.Erase(key);
}

bool AdaptiveQuotientFilter::ReportFalsePositive(HashedKey key) {
  const uint64_t f = FingerprintKey(key);
  const auto rit = remote_.find(f);
  if (rit == remote_.end()) {
    // Nothing resident shares the fingerprint (e.g. the report was stale);
    // nothing to adapt.
    return !Contains(key);
  }
  std::vector<Extension> exts;
  exts.reserve(rit->second.size());
  for (uint64_t stored : rit->second) {
    const HashedKey resident = HashedKey::FromMix(stored);
    // Grow this resident's extension until it no longer matches `key`.
    int len = 1;
    while (len < kMaxExtensionBits &&
           ExtensionBitsOf(resident, len) == ExtensionBitsOf(key, len)) {
      ++len;
    }
    exts.push_back(Extension{stored, len, ExtensionBitsOf(resident, len)});
  }
  extensions_[f] = std::move(exts);
  ++adaptations_;
  if (sink_ != nullptr) sink_->OnAdapt();
  return !Contains(key);
}

size_t AdaptiveQuotientFilter::SpaceBits() const {
  size_t ext_bits = 0;
  for (const auto& [f, exts] : extensions_) {
    // Charge the fingerprint index plus each extension's bits and length.
    ext_bits += 64;
    for (const Extension& e : exts) ext_bits += e.len + 6;
  }
  return base_.SpaceBits() + ext_bits;
}

bool AdaptiveQuotientFilter::SavePayload(std::ostream& os) const {
  WriteU64(os, hash_seed_);
  WriteU64(os, adaptations_);
  if (!base_.SavePayload(os)) return false;
  WriteU64(os, remote_.size());
  for (const auto& [f, keys] : remote_) {
    WriteU64(os, f);
    WriteU64(os, keys.size());
    for (uint64_t k : keys) WriteU64(os, k);
  }
  WriteU64(os, extensions_.size());
  for (const auto& [f, exts] : extensions_) {
    WriteU64(os, f);
    WriteU64(os, exts.size());
    for (const Extension& e : exts) {
      WriteU64(os, e.key);
      WriteI32(os, e.len);
      WriteU64(os, e.bits);
    }
  }
  return os.good();
}

bool AdaptiveQuotientFilter::LoadPayload(std::istream& is) {
  AdaptiveQuotientFilter fresh(1, 1);
  uint64_t num_remote;
  if (!ReadU64(is, &fresh.hash_seed_) || !ReadU64(is, &fresh.adaptations_) ||
      !fresh.base_.LoadPayload(is) ||
      !ReadU64Capped(is, &num_remote, kMaxSnapshotElements)) {
    return false;
  }
  fresh.remote_.reserve(std::min<uint64_t>(num_remote, 1 << 20));
  for (uint64_t i = 0; i < num_remote; ++i) {
    uint64_t f;
    uint64_t count;
    if (!ReadU64(is, &f) ||
        !ReadU64Capped(is, &count, kMaxSnapshotElements) || count == 0 ||
        fresh.remote_.count(f) != 0) {
      return false;
    }
    std::vector<uint64_t>& keys = fresh.remote_[f];
    keys.reserve(std::min<uint64_t>(count, 4096));
    for (uint64_t k = 0; k < count; ++k) {
      if (!ReadU64(is, &keys.emplace_back())) return false;
    }
  }
  uint64_t num_ext;
  if (!ReadU64Capped(is, &num_ext, kMaxSnapshotElements)) return false;
  fresh.extensions_.reserve(std::min<uint64_t>(num_ext, 1 << 20));
  for (uint64_t i = 0; i < num_ext; ++i) {
    uint64_t f;
    uint64_t count;
    if (!ReadU64(is, &f) ||
        !ReadU64Capped(is, &count, kMaxSnapshotElements) || count == 0 ||
        fresh.extensions_.count(f) != 0) {
      return false;
    }
    std::vector<Extension>& exts = fresh.extensions_[f];
    exts.reserve(std::min<uint64_t>(count, 4096));
    for (uint64_t k = 0; k < count; ++k) {
      Extension& e = exts.emplace_back();
      if (!ReadU64(is, &e.key) || !ReadI32(is, &e.len) ||
          !ReadU64(is, &e.bits)) {
        return false;
      }
    }
  }
  return CommitLoaded(*this, std::move(fresh));
}

bool AdaptiveQuotientFilter::CheckInvariants() const {
  // Extensions are pure hash derivatives of their resident keys.
  for (const auto& [f, exts] : extensions_) {
    for (const Extension& e : exts) {
      if (e.len < 1 || e.len > kMaxExtensionBits ||
          e.bits != ExtensionBitsOf(HashedKey::FromMix(e.key), e.len)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace bbf
