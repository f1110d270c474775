#include "quotient/quotient_filter.h"

#include <algorithm>

#include "core/metrics_sink.h"
#include "core/sizing.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

QuotientFilter::QuotientFilter(int q_bits, int r_bits, uint64_t hash_seed)
    : table_(q_bits, r_bits), hash_seed_(hash_seed) {}

QuotientFilter QuotientFilter::ForCapacity(uint64_t n, double fpr) {
  return QuotientFilter(QuotientBitsFor(n, kMaxLoadFactor),
                        RemainderBitsFor(fpr, kMaxLoadFactor));
}

void QuotientFilter::Fingerprint(HashedKey key, uint64_t* fq,
                                 uint64_t* fr) const {
  SplitFingerprint(key.Derive(hash_seed_), table_.q_bits(), table_.r_bits(),
                   fq, fr);
}

bool QuotientFilter::Insert(HashedKey key) {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  return InsertSorted(fq, fr);
}

bool QuotientFilter::InsertSorted(uint64_t fq, uint64_t fr) {
  // Runs stay sorted; a duplicate lands in front of its equals.
  return table_.LoadFactor() < kMaxLoadFactor &&
         table_.InsertIntoRun(fq, fr, [&](uint64_t s) {
           return table_.remainder(s) >= fr;
         });
}

bool QuotientFilter::Contains(HashedKey key) const {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  return ContainsFingerprint(fq, fr);
}

bool QuotientFilter::ContainsFingerprint(uint64_t fq, uint64_t fr) const {
  bool found = false;
  const uint64_t probed = table_.ScanRun(fq, [&](uint64_t s) {
    const uint64_t rem = table_.remainder(s);
    found = rem == fr;
    return rem < fr;  // Runs are sorted.
  });
  if (sink_ != nullptr) sink_->OnProbeLength(probed);
  return found;
}

void QuotientFilter::ContainsMany(std::span<const HashedKey> keys,
                                  uint8_t* out) const {
  // Every table size takes the tile loop: a filter cannot see its
  // caller's working set (one sharded batch spans every shard's table),
  // and tables from 160 KiB up answered faster tiled even alone (E30).
  constexpr size_t kTile = 32;
  uint64_t fq[kTile];
  uint64_t fr[kTile];
  for (size_t base = 0; base < keys.size(); base += kTile) {
    const size_t n = std::min(kTile, keys.size() - base);
    // Pass 1: fingerprint and request each home slot's four planes.
    for (size_t j = 0; j < n; ++j) {
      Fingerprint(keys[base + j], &fq[j], &fr[j]);
      table_.PrefetchSlot(fq[j]);
    }
    // Pass 2: walk the runs; the home-slot lines are resident by now.
    for (size_t j = 0; j < n; ++j) {
      out[base + j] = ContainsFingerprint(fq[j], fr[j]) ? 1 : 0;
    }
  }
}

size_t QuotientFilter::InsertMany(std::span<const HashedKey> keys) {
  constexpr size_t kTile = 32;
  uint64_t fq[kTile];
  uint64_t fr[kTile];
  size_t inserted = 0;
  for (size_t base = 0; base < keys.size(); base += kTile) {
    const size_t n = std::min(kTile, keys.size() - base);
    for (size_t j = 0; j < n; ++j) {
      Fingerprint(keys[base + j], &fq[j], &fr[j]);
      table_.PrefetchSlot(fq[j], /*for_write=*/true);
    }
    for (size_t j = 0; j < n; ++j) inserted += InsertSorted(fq[j], fr[j]);
  }
  return inserted;
}

uint64_t QuotientFilter::Count(HashedKey key) const {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  uint64_t count = 0;
  table_.ScanRun(fq, [&](uint64_t s) {
    const uint64_t rem = table_.remainder(s);
    count += rem == fr;
    return rem <= fr;
  });
  return count;
}

bool QuotientFilter::Erase(HashedKey key) {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  uint64_t slot = 0;
  bool found = false;
  table_.ScanRun(fq, [&](uint64_t s) {
    const uint64_t rem = table_.remainder(s);
    found = rem == fr;
    slot = s;
    return rem < fr;
  });
  if (!found) return false;
  table_.EraseFromRun(fq, slot);
  return true;
}

namespace {

// Shared payload shape of the plain and counting quotient filters: seed,
// key count, full table state, read straight into a fresh filter's
// fields. The table must match the variant's shape: the counting variant
// needs the tag plane, and neither carries values.
void SaveQfPayload(std::ostream& os, uint64_t hash_seed, uint64_t num_keys,
                   const QuotientTable& table) {
  WriteU64(os, hash_seed);
  WriteU64(os, num_keys);
  table.Save(os);
}

bool ParseQfPayload(std::istream& is, uint64_t* hash_seed, uint64_t* num_keys,
                    QuotientTable* table, bool want_tag) {
  return ReadU64(is, hash_seed) && ReadU64(is, num_keys) &&
         table->Parse(is) && table->has_tag() == want_tag &&
         table->value_bits() == 0;
}

}  // namespace

bool QuotientFilter::SavePayload(std::ostream& os) const {
  SaveQfPayload(os, hash_seed_, NumKeys(), table_);
  return os.good();
}

bool QuotientFilter::LoadPayload(std::istream& is) {
  // The plain filter stores one slot per key, so the frame's count must
  // be the table's used slots; the walk checks those against the planes.
  QuotientFilter fresh(1, 1);
  uint64_t n;
  return ParseQfPayload(is, &fresh.hash_seed_, &n, &fresh.table_,
                        /*want_tag=*/false) &&
         n == fresh.NumKeys() && CommitLoaded(*this, std::move(fresh));
}

// ---------------------------------------------------------------------------
// CountingQuotientFilter
// ---------------------------------------------------------------------------

CountingQuotientFilter::CountingQuotientFilter(int q_bits, int r_bits,
                                               uint64_t hash_seed)
    : table_(q_bits, r_bits, /*has_tag=*/true), hash_seed_(hash_seed) {}

CountingQuotientFilter CountingQuotientFilter::ForCapacity(uint64_t n,
                                                           double fpr) {
  return CountingQuotientFilter(
      QuotientBitsFor(n, QuotientFilter::kMaxLoadFactor),
      RemainderBitsFor(fpr, QuotientFilter::kMaxLoadFactor));
}

void CountingQuotientFilter::Fingerprint(HashedKey key, uint64_t* fq,
                                         uint64_t* fr) const {
  SplitFingerprint(key.Derive(hash_seed_), table_.q_bits(), table_.r_bits(),
                   fq, fr);
}

uint64_t CountingQuotientFilter::ReadCounter(
    uint64_t fq, uint64_t fr, uint64_t* pos,
    std::vector<uint64_t>* digits) const {
  uint64_t count = 0;
  uint64_t base = 1;
  table_.ScanRun(fq, [&](uint64_t s) {
    if (count > 0) {
      // Little-endian base-2^r digits of (count - 1) follow the remainder
      // slot, each in a tagged slot.
      if (!table_.tag(s)) return false;
      if (digits != nullptr) digits->push_back(s);
      count += table_.remainder(s) * base;
      base <<= table_.r_bits();
      return true;
    }
    if (table_.tag(s)) return true;  // A smaller remainder's digit.
    const uint64_t rem = table_.remainder(s);
    if (rem == fr) {
      count = 1;
      *pos = s;
    }
    return rem <= fr;
  });
  return count;
}

bool CountingQuotientFilter::Insert(HashedKey key) {
  if (table_.LoadFactor() >= QuotientFilter::kMaxLoadFactor ||
      table_.num_used_slots() + 1 >= table_.num_slots()) {
    return false;
  }
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);

  uint64_t pos = 0;
  std::vector<uint64_t> digits;
  const uint64_t count = ReadCounter(fq, fr, &pos, &digits);
  if (count == 0) {
    // New key: a remainder slot in front of the first larger remainder
    // (that is, behind the previous remainder's digits).
    table_.InsertIntoRun(fq, fr, [&](uint64_t s) {
      return !table_.tag(s) && table_.remainder(s) > fr;
    });
  } else {
    // Existing key: bump the variable-length counter.
    uint64_t c = count;  // New count - 1 == old count.
    const uint64_t mask = LowMask(table_.r_bits());
    for (uint64_t d : digits) {
      table_.set_remainder(d, c & mask);
      c >>= table_.r_bits();
    }
    if (c > 0) {
      // The counter grew a digit: the new most-significant digit goes
      // right behind the last one (or behind the remainder slot).
      const uint64_t at = table_.Next(digits.empty() ? pos : digits.back());
      table_.InsertIntoRun(
          fq, c & mask, [&](uint64_t s) { return s == at; }, /*tag=*/true);
    }
  }
  ++num_keys_;
  return true;
}

uint64_t CountingQuotientFilter::Count(HashedKey key) const {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  uint64_t pos = 0;
  return ReadCounter(fq, fr, &pos, nullptr);
}

bool CountingQuotientFilter::Erase(HashedKey key) {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  uint64_t pos = 0;
  std::vector<uint64_t> digits;
  const uint64_t count = ReadCounter(fq, fr, &pos, &digits);
  if (count == 0) return false;
  if (count == 1) {
    // Remove the remainder slot itself (it has no digit slots).
    table_.EraseFromRun(fq, pos);
  } else {
    // Rewrite digits for count - 2 == (count - 1) - 1; drop the last digit
    // slot if the encoding shrank.
    uint64_t c = count - 2;
    const uint64_t mask = LowMask(table_.r_bits());
    const int r = table_.r_bits();
    // Number of digits needed for value c (0 -> none).
    size_t needed = 0;
    for (uint64_t v = c; v > 0; v >>= r) ++needed;
    for (size_t i = 0; i < needed; ++i) {
      table_.set_remainder(digits[i], c & mask);
      c >>= r;
    }
    for (size_t i = digits.size(); i > needed; --i) {
      table_.EraseFromRun(fq, digits[i - 1]);
    }
  }
  --num_keys_;
  return true;
}

bool CountingQuotientFilter::CheckInvariants() const {
  if (!table_.CheckInvariants()) return false;
  // Decode as ReadCounter does: a remainder slot is one key, plus the
  // little-endian base-2^r digits in the tagged slots behind it.
  const int r = table_.r_bits();
  uint64_t keys = 0;
  uint64_t base = 0;
  table_.ForEachSlot([&](uint64_t /*quotient*/, uint64_t s) {
    if (!table_.tag(s)) {
      ++keys;
      base = 1;
      return;
    }
    keys += table_.remainder(s) * base;
    base = r < 64 ? base << r : 0;
  });
  return keys == num_keys_;
}

bool CountingQuotientFilter::SavePayload(std::ostream& os) const {
  SaveQfPayload(os, hash_seed_, num_keys_, table_);
  return os.good();
}

bool CountingQuotientFilter::LoadPayload(std::istream& is) {
  // Counter digits take slots too, so the counting filter keeps its own
  // key count, which CheckInvariants recounts.
  CountingQuotientFilter fresh(1, 1);
  return ParseQfPayload(is, &fresh.hash_seed_, &fresh.num_keys_,
                        &fresh.table_, /*want_tag=*/true) &&
         CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
