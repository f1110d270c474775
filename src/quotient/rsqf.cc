#include "quotient/rsqf.h"

#include <algorithm>
#include <utility>

#include "core/metrics_sink.h"
#include "core/sizing.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

RsqfTable::RsqfTable(int q_bits, int value_bits)
    : value_bits_(value_bits),
      num_quotients_(uint64_t{1} << q_bits),
      total_slots_((uint64_t{1} << q_bits) + 2 * kBlockSlots),
      occupieds_(total_slots_),
      runends_(total_slots_),
      values_(total_slots_, value_bits),
      offsets_(total_slots_ / kBlockSlots + 1, 0) {}

uint64_t RsqfTable::SelectRunendAfter(uint64_t from, uint64_t k) const {
  // Position of the k-th (1-indexed) runend bit at position >= from.
  uint64_t w = from / 64;
  const uint64_t num_words = runends_.NumWords();
  uint64_t word = w < num_words
                      ? runends_.Word(w) & ~LowMask(static_cast<int>(from % 64))
                      : 0;
  while (w < num_words) {
    const uint64_t count = Popcount(word);
    if (count >= k) {
      return w * 64 + SelectInWord(word, static_cast<int>(k - 1));
    }
    k -= count;
    ++w;
    if (w < num_words) word = runends_.Word(w);
  }
  return kNone;
}

uint64_t RsqfTable::RunEndUpTo(uint64_t q) const {
  const uint64_t b = q / kBlockSlots;
  const int i = static_cast<int>(q % kBlockSlots);
  const uint64_t occ_word = occupieds_.Word(b);
  const uint64_t d = Popcount(occ_word & LowMask(i + 1));
  const uint64_t offset = offsets_[b];
  if (d == 0) {
    if (offset == 0) return kNone;  // Every earlier run ends before 64b.
    return b * kBlockSlots + offset - 1;  // Last prior run's end.
  }
  // The d-th runend at or after the prior runs' spill boundary belongs to
  // the d-th occupied quotient of this block.
  return SelectRunendAfter(b * kBlockSlots + offset, d);
}

uint64_t RsqfTable::RunStart(uint64_t q) const {
  // A run starts right after the previous occupied quotient's runend, but
  // never before its own quotient slot.
  if (q == 0) return 0;
  const uint64_t prev = RunEndUpTo(q - 1);
  return (prev == kNone || prev < q) ? q : prev + 1;
}

bool RsqfTable::ContainsValue(uint64_t q, uint64_t value,
                              uint64_t* probed) const {
  if (!occupieds_.Get(q)) {
    if (probed != nullptr) *probed = 0;
    return false;
  }
  uint64_t pos = RunEndUpTo(q);
  uint64_t scanned = 0;
  bool hit = false;
  while (true) {
    ++scanned;
    if (values_.Get(pos) == value) {
      hit = true;
      break;
    }
    if (pos <= q) break;  // A run never starts before its quotient.
    --pos;
    if (runends_.Get(pos)) break;  // Crossed into the previous run.
  }
  if (probed != nullptr) *probed = scanned;
  return hit;
}

bool RsqfTable::InsertValue(uint64_t q, uint64_t value, bool sorted) {
  const bool was_occupied = occupieds_.Get(q);

  const uint64_t e = RunEndUpTo(q);
  uint64_t p = (e == kNone || e < q) ? q : e + 1;
  bool mid_run = false;
  if (sorted && was_occupied) {
    // Splice position: the first run slot holding a larger value (equal
    // values append after it, so duplicate inserts stay adjacent).
    for (uint64_t pos = RunStart(q); pos <= e; ++pos) {
      if (values_.Get(pos) > value) {
        p = pos;
        mid_run = true;
        break;
      }
    }
  }
  // First unused slot at or after p, jumping run by run. The last slot
  // always stays free (CheckInvariants holds a load to it), so u never
  // passes the table.
  uint64_t u = p;
  while (true) {
    const uint64_t ru = RunEndUpTo(u);
    if (ru == kNone || ru < u) break;
    u = ru + 1;
  }
  if (u + 1 >= total_slots_) return false;  // Slack exhausted.
  // Shift values and runend bits in [p, u) one slot right.
  for (uint64_t j = u; j > p; --j) {
    values_.Set(j, values_.Get(j - 1));
    runends_.Assign(j, runends_.Get(j - 1));
  }
  values_.Set(p, value);
  if (!was_occupied) {
    occupieds_.Set(q);
    runends_.Set(p);
  } else if (!mid_run) {
    // Append to the existing run: its old end (p - 1) is an end no more.
    runends_.Clear(p - 1);
    runends_.Set(p);
  } else {
    // Mid-run splice: the shift carried the run's end bit (at e) to e+1
    // on its own. The spliced slot is interior — clear the stale copy the
    // shift left behind when p was the run end itself.
    runends_.Clear(p);
  }
  // Offsets of block boundaries in (q, u+1] may have changed: the
  // inserted/extended run can spill across them and the shift moved every
  // runend in [p, u) one right. Boundaries at or before q are provably
  // untouched (their controlling runend precedes p), so the recurrence
  // can rebuild the window from the block containing q.
  RecomputeOffsets(q / kBlockSlots + 1, (u + 1) / kBlockSlots);
  return true;
}

void RsqfTable::RecomputeOffsets(uint64_t first_block, uint64_t last_block) {
  last_block = std::min<uint64_t>(last_block, offsets_.size() - 1);
  for (uint64_t b = std::max<uint64_t>(first_block, 1); b <= last_block;
       ++b) {
    const uint64_t prev_occ = Popcount(occupieds_.Word(b - 1));
    uint64_t last_runend;
    if (prev_occ == 0) {
      // Block b-1 added no runs; inherit the previous spill (if any).
      if (offsets_[b - 1] == 0) {
        offsets_[b] = 0;
        continue;
      }
      last_runend = (b - 1) * kBlockSlots + offsets_[b - 1] - 1;
    } else {
      last_runend = SelectRunendAfter(
          (b - 1) * kBlockSlots + offsets_[b - 1], prev_occ);
    }
    const uint64_t boundary = b * kBlockSlots;
    offsets_[b] = last_runend != kNone && last_runend + 1 > boundary
                      ? static_cast<uint16_t>(last_runend + 1 - boundary)
                      : 0;
  }
}

bool RsqfTable::Double() {
  const int q_bits = BitWidth(num_quotients_) - 1;
  if (value_bits_ <= 1 || q_bits >= 38) return false;
  const int top = value_bits_ - 1;
  RsqfTable next(q_bits + 1, top);
  bool ok = true;
  // Runs arrive in quotient order and sorted, so every re-split insert
  // appends at its new run's end — the rebuild is one linear pass.
  ForEachValue([&](uint64_t q, uint64_t value) {
    if (ok) {
      ok = next.InsertValue((q << 1) | (value >> top), value & LowMask(top),
                            /*sorted=*/true);
    }
  });
  if (!ok) return false;
  *this = std::move(next);
  return true;
}

bool RsqfTable::CheckInvariants(uint64_t used_slots, bool sorted) const {
  // Recomputes each block offset (the spill of earlier runs past its
  // boundary) on the way.
  uint64_t used = 0;
  uint64_t last_end = kNone;  // Runend of the last quotient walked.
  uint64_t e = 0;             // Where the next runend search resumes.
  for (uint64_t b = 0; b < offsets_.size(); ++b) {
    const uint64_t boundary = b * kBlockSlots;
    const uint64_t spill =
        last_end != kNone && last_end >= boundary ? last_end + 1 - boundary
                                                  : 0;
    if (offsets_[b] != spill) return false;
    const uint64_t block_end =
        std::min(boundary + kBlockSlots, total_slots_);
    for (uint64_t q = boundary; q < block_end; ++q) {
      if (!occupieds_.Get(q)) continue;
      // An occupied quotient lies before the slack, and its run ends at
      // or past it.
      if (q >= num_quotients_) return false;
      while (e < total_slots_ && !runends_.Get(e)) ++e;
      if (e == total_slots_ || e < q) return false;
      const uint64_t start =
          last_end == kNone ? q : std::max(q, last_end + 1);
      for (uint64_t pos = start + 1; sorted && pos <= e; ++pos) {
        if (values_.Get(pos) < values_.Get(pos - 1)) return false;
      }
      used += e + 1 - start;
      last_end = e++;
    }
  }
  // No runend without an occupied quotient, and the last slot stays free:
  // InsertValue's shifts stop short of it.
  while (e < total_slots_ && !runends_.Get(e)) ++e;
  if (e < total_slots_ || (last_end != kNone && last_end + 1 >= total_slots_)) {
    return false;
  }
  return used_slots == kNone || used == used_slots;
}

bool RsqfTable::SaveBody(std::ostream& os) const {
  occupieds_.Save(os);
  runends_.Save(os);
  values_.Save(os);
  for (uint16_t o : offsets_) WriteU64(os, o);
  return os.good();
}

bool RsqfTable::ParseBody(std::istream& is, int q_bits, int value_bits) {
  if (q_bits < 1 || q_bits > 38 || value_bits < 1 || value_bits > 64) {
    return false;
  }
  value_bits_ = value_bits;
  num_quotients_ = uint64_t{1} << q_bits;
  total_slots_ = num_quotients_ + 2 * kBlockSlots;
  if (!occupieds_.Load(is) || occupieds_.size() != total_slots_ ||
      !runends_.Load(is) || runends_.size() != total_slots_ ||
      !values_.Load(is) || values_.size() != total_slots_ ||
      values_.width() != value_bits) {
    return false;
  }
  offsets_.resize(total_slots_ / kBlockSlots + 1);
  for (uint16_t& offset : offsets_) {
    uint64_t v;
    if (!ReadU64Capped(is, &v, 0xFFFF)) return false;
    offset = static_cast<uint16_t>(v);
  }
  return true;
}

Rsqf::Rsqf(int q_bits, int r_bits, uint64_t hash_seed)
    : q_bits_(q_bits),
      r_bits_(r_bits),
      hash_seed_(hash_seed),
      table_(q_bits, r_bits) {}

Rsqf Rsqf::ForCapacity(uint64_t n, double fpr) {
  return Rsqf(QuotientBitsFor(n, kMaxLoadFactor),
              RemainderBitsFor(fpr, kMaxLoadFactor));
}

void Rsqf::Fingerprint(HashedKey key, uint64_t* fq, uint64_t* fr) const {
  SplitFingerprint(key.Derive(hash_seed_), q_bits_, r_bits_, fq, fr);
}

bool Rsqf::Contains(HashedKey key) const {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  uint64_t probed;
  const bool hit = table_.ContainsValue(fq, fr, &probed);
  if (sink_ != nullptr) sink_->OnProbeLength(probed);
  return hit;
}

bool Rsqf::Insert(HashedKey key) {
  if (LoadFactor() >= kMaxLoadFactor) return false;
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  if (!table_.InsertValue(fq, fr, /*sorted=*/false)) return false;
  ++num_keys_;
  return true;
}

bool Rsqf::SavePayload(std::ostream& os) const {
  WriteI32(os, q_bits_);
  WriteI32(os, r_bits_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_keys_);
  return table_.SaveBody(os);
}

bool Rsqf::LoadPayload(std::istream& is) {
  Rsqf fresh(1, 1);
  if (!ReadI32(is, &fresh.q_bits_) || fresh.q_bits_ < 1 ||
      fresh.q_bits_ > 38 || !ReadI32(is, &fresh.r_bits_) ||
      fresh.r_bits_ < 1 || fresh.r_bits_ > 64 ||
      !ReadU64(is, &fresh.hash_seed_) || !ReadU64(is, &fresh.num_keys_) ||
      !fresh.table_.ParseBody(is, fresh.q_bits_, fresh.r_bits_)) {
    return false;
  }
  return CommitLoaded(*this, std::move(fresh));
}

}  // namespace bbf
