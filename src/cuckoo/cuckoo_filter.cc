#include "cuckoo/cuckoo_filter.h"

#include <algorithm>
#include <cmath>

#include "core/metrics_sink.h"

namespace bbf {

CuckooFilter::CuckooFilter(uint64_t expected_keys, int fingerprint_bits,
                           uint64_t hash_seed)
    : table_(expected_keys, fingerprint_bits, /*value_bits=*/0, hash_seed,
             {7919, 1}) {}

CuckooFilter CuckooFilter::ForFpr(uint64_t expected_keys, double fpr) {
  // FPR ~ 2 * slots-per-bucket / 2^f.
  const int f = std::max(
      2, static_cast<int>(std::ceil(std::log2(2.0 * kSlotsPerBucket / fpr))));
  return CuckooFilter(expected_keys, f);
}

bool CuckooFilter::Place(const CuckooTable::Probe& p) {
  uint64_t kicks;
  const bool placed = table_.Insert(p, /*value=*/0, &kicks);
  if (sink_ != nullptr) sink_->OnKickChain(kicks);
  return placed;
}

void CuckooFilter::ContainsMany(std::span<const HashedKey> keys,
                                uint8_t* out) const {
  CuckooTable::Probe probes[CuckooTable::kTile];
  for (size_t base = 0; base < keys.size(); base += CuckooTable::kTile) {
    const size_t n = std::min(CuckooTable::kTile, keys.size() - base);
    // Pass 1: hash and request both candidate buckets of every key.
    for (size_t j = 0; j < n; ++j) {
      probes[j] = table_.ProbeOf(keys[base + j]);
      table_.Prefetch(probes[j]);
    }
    // Pass 2: probe the now-resident buckets (and the tiny stash).
    table_.ContainsTile(probes, n, out + base);
  }
}

size_t CuckooFilter::InsertMany(std::span<const HashedKey> keys) {
  CuckooTable::Probe probes[CuckooTable::kTile];
  size_t inserted = 0;
  for (size_t base = 0; base < keys.size(); base += CuckooTable::kTile) {
    const size_t n = std::min(CuckooTable::kTile, keys.size() - base);
    for (size_t j = 0; j < n; ++j) {
      probes[j] = table_.ProbeOf(keys[base + j]);
      table_.Prefetch(probes[j], /*for_write=*/true);
    }
    // Placement stays sequential — kicking may touch arbitrary buckets —
    // but the common no-kick case lands in prefetched lines.
    for (size_t j = 0; j < n; ++j) inserted += Place(probes[j]);
  }
  return inserted;
}

}  // namespace bbf
