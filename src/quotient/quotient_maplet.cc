#include "quotient/quotient_maplet.h"

#include <utility>

#include "core/sizing.h"
#include "quotient/quotient_filter.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

QuotientMaplet::QuotientMaplet(int q_bits, int r_bits, int value_bits,
                               uint64_t hash_seed)
    : table_(q_bits, r_bits, /*has_tag=*/false, value_bits),
      hash_seed_(hash_seed) {}

QuotientMaplet QuotientMaplet::ForCapacity(uint64_t n, double fpr,
                                           int value_bits) {
  return QuotientMaplet(
      QuotientBitsFor(n, QuotientFilter::kMaxLoadFactor),
      RemainderBitsFor(fpr, QuotientFilter::kMaxLoadFactor), value_bits);
}

void QuotientMaplet::Fingerprint(HashedKey key, uint64_t* fq,
                                 uint64_t* fr) const {
  SplitFingerprint(key.Derive(hash_seed_), table_.q_bits(), table_.r_bits(),
                   fq, fr);
}

bool QuotientMaplet::Insert(HashedKey key, uint64_t value) {
  if (table_.LoadFactor() >= QuotientFilter::kMaxLoadFactor) return false;
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  // Runs stay sorted by remainder; a new entry lands in front of its equals.
  return table_.InsertIntoRun(
      fq, fr, [&](uint64_t s) { return table_.remainder(s) >= fr; },
      /*tag=*/false, value);
}

std::vector<uint64_t> QuotientMaplet::Lookup(HashedKey key) const {
  std::vector<uint64_t> values;
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  table_.ScanRun(fq, [&](uint64_t s) {
    const uint64_t rem = table_.remainder(s);
    if (rem == fr) values.push_back(table_.value(s));
    return rem <= fr;
  });
  return values;
}

bool QuotientMaplet::Erase(HashedKey key, uint64_t value) {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  uint64_t slot = 0;
  bool found = false;
  table_.ScanRun(fq, [&](uint64_t s) {
    const uint64_t rem = table_.remainder(s);
    found = rem == fr && table_.value(s) == value;
    slot = s;
    return !found && rem <= fr;
  });
  if (!found) return false;
  table_.EraseFromRun(fq, slot);
  return true;
}

bool QuotientMaplet::SavePayload(std::ostream& os) const {
  WriteU64(os, hash_seed_);
  WriteU64(os, NumEntries());
  table_.Save(os);
  return os.good();
}

bool QuotientMaplet::LoadPayload(std::istream& is) {
  // A maplet table always carries values, never run-compaction tags, and
  // its entry count is its used slots, which the walk checks.
  QuotientMaplet fresh(1, 1, 1);
  uint64_t n;
  if (!ReadU64(is, &fresh.hash_seed_) || !ReadU64(is, &n) ||
      !fresh.table_.Parse(is) || fresh.table_.value_bits() == 0 ||
      fresh.table_.has_tag() || n != fresh.NumEntries()) {
    return false;
  }
  return CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
