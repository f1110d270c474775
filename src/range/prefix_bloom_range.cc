#include "range/prefix_bloom_range.h"

#include <utility>

#include "util/serialize.h"

namespace bbf {

PrefixBloomRangeFilter::PrefixBloomRangeFilter(
    const std::vector<uint64_t>& keys, int prefix_bits, double bits_per_key,
    int max_probes)
    : prefix_bits_(prefix_bits), max_probes_(max_probes) {
  bloom_ = std::make_unique<BloomFilter>(
      std::max<uint64_t>(keys.size(), 1), bits_per_key);
  for (uint64_t k : keys) bloom_->Insert(k >> (64 - prefix_bits_));
}

bool PrefixBloomRangeFilter::MayContainRange(uint64_t lo, uint64_t hi) const {
  const int shift = 64 - prefix_bits_;
  const uint64_t first = lo >> shift;
  const uint64_t last = hi >> shift;
  if (last - first >= static_cast<uint64_t>(max_probes_)) {
    return true;  // Interval spans too many prefixes: cannot filter.
  }
  for (uint64_t p = first; p <= last; ++p) {
    if (bloom_->Contains(p)) return true;
    if (p == last) break;  // Guard overflow at the domain edge.
  }
  return false;
}

bool PrefixBloomRangeFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, prefix_bits_);
  WriteI32(os, max_probes_);
  return bloom_->SavePayload(os) && os.good();
}

bool PrefixBloomRangeFilter::LoadPayload(std::istream& is) {
  PrefixBloomRangeFilter fresh({}, 1, 8.0);
  if (!ReadI32(is, &fresh.prefix_bits_) || fresh.prefix_bits_ < 1 ||
      fresh.prefix_bits_ > 64 || !ReadI32(is, &fresh.max_probes_) ||
      fresh.max_probes_ < 1 || fresh.max_probes_ > (1 << 20) ||
      !fresh.bloom_->LoadPayload(is)) {
    return false;
  }
  return CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
