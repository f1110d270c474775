#include "expandable/taffy_filter.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/metrics_sink.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

TaffyFilter::TaffyFilter(int q_bits, int fingerprint_bits, uint64_t hash_seed)
    : table_(q_bits, fingerprint_bits + 1),  // +1 for the unary delimiter.
      fingerprint_bits_(fingerprint_bits),
      hash_seed_(hash_seed) {}

int TaffyFilter::LengthOf(uint64_t encoded) {
  return HighestSetBit(encoded);
}

uint64_t TaffyFilter::BitsOf(uint64_t encoded) {
  return encoded ^ (uint64_t{1} << HighestSetBit(encoded));
}

void TaffyFilter::KeyParts(HashedKey key, uint64_t* fq, uint64_t* fp) const {
  const uint64_t h = key.Derive(hash_seed_);
  *fq = h & (table_.num_slots() - 1);
  *fp = h >> table_.q_bits();  // Fresh fingerprints take the next bits.
}

bool TaffyFilter::InsertEncoded(uint64_t fq, uint64_t encoded) {
  // Runs are unordered here (lengths vary); insert as the new head.
  return table_.InsertIntoRun(fq, encoded, [](uint64_t) { return true; });
}

bool TaffyFilter::Insert(HashedKey key) {
  if (table_.LoadFactor() >= kMaxLoadFactor) Expand();
  uint64_t fq;
  uint64_t fp;
  KeyParts(key, &fq, &fp);
  const int len = std::min(fingerprint_bits_, 64 - table_.q_bits());
  if (!InsertEncoded(fq, Encode(fp & LowMask(len), len))) return false;
  ++num_keys_;
  return true;
}

bool TaffyFilter::Contains(HashedKey key) const {
  uint64_t fq;
  uint64_t fp;
  KeyParts(key, &fq, &fp);
  bool hit = false;
  table_.ScanRun(fq, [&](uint64_t s) {
    const uint64_t encoded = table_.remainder(s);
    // A stored fingerprint matches if it is a prefix (in low-order bits)
    // of the query's fingerprint; void entries (len 0) match everything.
    hit = (fp & LowMask(LengthOf(encoded))) == BitsOf(encoded);
    return !hit;
  });
  return hit;
}

bool TaffyFilter::Erase(HashedKey key) {
  uint64_t fq;
  uint64_t fp;
  KeyParts(key, &fq, &fp);
  // Remove the longest matching fingerprint (most specific entry).
  uint64_t best_pos = 0;
  int best_len = -1;
  table_.ScanRun(fq, [&](uint64_t s) {
    const uint64_t encoded = table_.remainder(s);
    const int len = LengthOf(encoded);
    if ((fp & LowMask(len)) == BitsOf(encoded) && len > best_len) {
      best_len = len;
      best_pos = s;
    }
    return true;
  });
  if (best_len < 0) return false;
  table_.EraseFromRun(fq, best_pos);
  --num_keys_;
  return true;
}

void TaffyFilter::Expand() {
  std::vector<std::pair<uint64_t, uint64_t>> entries;  // (quotient, encoded).
  entries.reserve(table_.num_used_slots());
  table_.ForEachSlot([&](uint64_t q, uint64_t slot) {
    entries.emplace_back(q, table_.remainder(slot));
  });
  const int old_q = table_.q_bits();
  QuotientTable bigger(old_q + 1, table_.r_bits());
  table_ = std::move(bigger);
  for (const auto& [fq, encoded] : entries) {
    const int len = LengthOf(encoded);
    if (len == 0) {
      // Void fingerprint: the donated bit is unknown, so the entry lives
      // in both children (keeps the no-false-negative guarantee).
      InsertEncoded(fq, encoded);
      InsertEncoded(fq | (uint64_t{1} << old_q), encoded);
    } else {
      const uint64_t bits = BitsOf(encoded);
      const uint64_t new_fq = fq | ((bits & 1) << old_q);
      InsertEncoded(new_fq, Encode(bits >> 1, len - 1));
    }
  }
  ++expansions_;
  if (sink_ != nullptr) sink_->OnExpansion();
}

bool TaffyFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, fingerprint_bits_);
  WriteI32(os, expansions_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_keys_);
  table_.Save(os);
  return os.good();
}

bool TaffyFilter::LoadPayload(std::istream& is) {
  TaffyFilter fresh(1, 1);
  const int& f = fresh.fingerprint_bits_;
  // Slot width is the fresh fingerprint length plus the unary delimiter;
  // it never changes across expansions.
  if (!ReadI32(is, &fresh.fingerprint_bits_) || f < 1 || f > 62 ||
      !ReadI32(is, &fresh.expansions_) || fresh.expansions_ < 0 ||
      fresh.expansions_ > 64 || !ReadU64(is, &fresh.hash_seed_) ||
      !ReadU64(is, &fresh.num_keys_) || !fresh.table_.Parse(is) ||
      fresh.table_.r_bits() != f + 1 || fresh.table_.has_tag() ||
      fresh.table_.value_bits() != 0) {
    return false;
  }
  return CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
