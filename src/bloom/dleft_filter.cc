#include "bloom/dleft_filter.h"

#include <algorithm>

#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

DleftCountingFilter::DleftCountingFilter(uint64_t expected_keys, int d,
                                         int cells_per_bucket,
                                         int fingerprint_bits,
                                         int counter_bits)
    : d_(d),
      cells_per_bucket_(cells_per_bucket),
      fingerprint_bits_(fingerprint_bits),
      counter_bits_(counter_bits) {
  const uint64_t total_cells =
      std::max<uint64_t>(d_ * cells_per_bucket_,
                         static_cast<uint64_t>(expected_keys / 0.75));
  buckets_per_table_ =
      std::max<uint64_t>(1, total_cells / (d_ * cells_per_bucket_));
  cells_ = CompactVector(
      static_cast<uint64_t>(d_) * buckets_per_table_ * cells_per_bucket_,
      fingerprint_bits_ + counter_bits_);
}

uint64_t DleftCountingFilter::Fingerprint(HashedKey key) const {
  const uint64_t fp = key.Derive(0x91) & LowMask(fingerprint_bits_);
  return fp == 0 ? 1 : fp;  // 0 is the empty-cell marker.
}

uint64_t DleftCountingFilter::BucketIndex(HashedKey key, int table) const {
  return FastRange64(key.Derive(0xA0 + table), buckets_per_table_);
}

DleftCountingFilter::Cell DleftCountingFilter::GetCell(uint64_t slot) const {
  const uint64_t raw = cells_.Get(slot);
  return Cell{raw >> counter_bits_, raw & LowMask(counter_bits_)};
}

void DleftCountingFilter::PutCell(uint64_t slot, const Cell& cell) {
  cells_.Set(slot, (cell.fingerprint << counter_bits_) |
                       (cell.count & LowMask(counter_bits_)));
}

int DleftCountingFilter::BucketLoad(int table, uint64_t bucket) const {
  int load = 0;
  for (int c = 0; c < cells_per_bucket_; ++c) {
    if (GetCell(CellSlot(table, bucket, c)).fingerprint != 0) ++load;
  }
  return load;
}

bool DleftCountingFilter::Insert(HashedKey key) {
  const uint64_t fp = Fingerprint(key);
  const uint64_t max_count = LowMask(counter_bits_);
  // Pass 1: an existing cell with this fingerprint in any candidate bucket.
  for (int t = 0; t < d_; ++t) {
    const uint64_t b = BucketIndex(key, t);
    for (int c = 0; c < cells_per_bucket_; ++c) {
      const uint64_t slot = CellSlot(t, b, c);
      Cell cell = GetCell(slot);
      if (cell.fingerprint == fp) {
        if (cell.count < max_count) {
          ++cell.count;
          PutCell(slot, cell);
        } else {
          ++overflow_[key.value()];  // Counter saturated; spill the excess exactly.
        }
        ++num_keys_;
        return true;
      }
    }
  }
  // Pass 2: d-left placement — least-loaded candidate bucket, leftmost wins.
  int best_table = -1;
  uint64_t best_bucket = 0;
  int best_load = cells_per_bucket_;
  for (int t = 0; t < d_; ++t) {
    const uint64_t b = BucketIndex(key, t);
    const int load = BucketLoad(t, b);
    if (load < best_load) {
      best_load = load;
      best_table = t;
      best_bucket = b;
    }
  }
  if (best_table < 0) {
    ++overflow_[key.value()];
    ++num_keys_;
    return true;
  }
  for (int c = 0; c < cells_per_bucket_; ++c) {
    const uint64_t slot = CellSlot(best_table, best_bucket, c);
    if (GetCell(slot).fingerprint == 0) {
      PutCell(slot, Cell{fp, 1});
      ++num_keys_;
      return true;
    }
  }
  ++overflow_[key.value()];
  ++num_keys_;
  return true;
}

bool DleftCountingFilter::Erase(HashedKey key) {
  const auto it = overflow_.find(key.value());
  if (it != overflow_.end()) {
    if (--it->second == 0) overflow_.erase(it);
    --num_keys_;
    return true;
  }
  const uint64_t fp = Fingerprint(key);
  for (int t = 0; t < d_; ++t) {
    const uint64_t b = BucketIndex(key, t);
    for (int c = 0; c < cells_per_bucket_; ++c) {
      const uint64_t slot = CellSlot(t, b, c);
      Cell cell = GetCell(slot);
      if (cell.fingerprint == fp) {
        if (--cell.count == 0) cell.fingerprint = 0;
        PutCell(slot, cell);
        --num_keys_;
        return true;
      }
    }
  }
  return false;
}

uint64_t DleftCountingFilter::Count(HashedKey key) const {
  uint64_t count = 0;
  const auto it = overflow_.find(key.value());
  if (it != overflow_.end()) count += it->second;
  const uint64_t fp = Fingerprint(key);
  // Sum over ALL matching cells: a colliding twin whose candidate buckets
  // only partially overlap ours can create a second cell with our
  // fingerprint, and our own increments may be split across both. Summing
  // preserves the counting-filter upper-bound guarantee.
  for (int t = 0; t < d_; ++t) {
    const uint64_t b = BucketIndex(key, t);
    for (int c = 0; c < cells_per_bucket_; ++c) {
      const Cell cell = GetCell(CellSlot(t, b, c));
      if (cell.fingerprint == fp) count += cell.count;
    }
  }
  return count;
}

size_t DleftCountingFilter::SpaceBits() const {
  return cells_.size() * cells_.width() +
         overflow_.size() * (sizeof(uint64_t) * 2 * 8);
}

bool DleftCountingFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, d_);
  WriteI32(os, cells_per_bucket_);
  WriteI32(os, fingerprint_bits_);
  WriteI32(os, counter_bits_);
  WriteU64(os, buckets_per_table_);
  WriteU64(os, num_keys_);
  cells_.Save(os);
  WriteU64(os, overflow_.size());
  for (const auto& [key, count] : overflow_) {
    WriteU64(os, key);
    WriteU64(os, count);
  }
  return os.good();
}

bool DleftCountingFilter::LoadPayload(std::istream& is) {
  DleftCountingFilter fresh(0, 1, 1, 1, 1);
  const int& d = fresh.d_;
  const int& cpb = fresh.cells_per_bucket_;
  const int& fp_bits = fresh.fingerprint_bits_;
  const int& ctr_bits = fresh.counter_bits_;
  uint64_t overflow_count;
  if (!ReadI32(is, &fresh.d_) || d < 1 || d > 16 ||
      !ReadI32(is, &fresh.cells_per_bucket_) || cpb < 1 || cpb > 64 ||
      !ReadI32(is, &fresh.fingerprint_bits_) || fp_bits < 1 ||
      !ReadI32(is, &fresh.counter_bits_) || ctr_bits < 1 ||
      fp_bits + ctr_bits > 64 ||
      !ReadU64Capped(is, &fresh.buckets_per_table_, kMaxSnapshotElements) ||
      fresh.buckets_per_table_ == 0 || !ReadU64(is, &fresh.num_keys_) ||
      !fresh.cells_.Load(is) ||
      fresh.cells_.size() !=
          static_cast<uint64_t>(d) * fresh.buckets_per_table_ * cpb ||
      fresh.cells_.width() != fp_bits + ctr_bits ||
      !ReadU64Capped(is, &overflow_count, kMaxSnapshotElements)) {
    return false;
  }
  for (uint64_t i = 0; i < overflow_count; ++i) {
    uint64_t key, count;
    if (!ReadU64(is, &key) || !ReadU64(is, &count) || count == 0) {
      return false;
    }
    fresh.overflow_[key] = count;
  }
  return CommitLoaded(*this, std::move(fresh));
}

bool DleftCountingFilter::CheckInvariants() const {
  // An empty cell counts 0 and an occupied one at least 1; the key count
  // is every cell's count plus every overflowed key's.
  uint64_t held = 0;
  for (uint64_t slot = 0; slot < cells_.size(); ++slot) {
    const Cell cell = GetCell(slot);
    if ((cell.fingerprint == 0) != (cell.count == 0)) return false;
    held += cell.count;
  }
  for (const auto& [key, count] : overflow_) held += count;
  return num_keys_ == held;
}

}  // namespace bbf
