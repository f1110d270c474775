#include "quotient/quotient_table.h"

#include <algorithm>
#include <deque>

#include "util/bits.h"
#include "util/serialize.h"

namespace bbf {

QuotientTable::QuotientTable(int q_bits, int r_bits, bool has_tag,
                             int value_bits)
    : q_bits_(q_bits),
      r_bits_(r_bits),
      value_bits_(value_bits),
      has_tag_(has_tag),
      num_slots_(uint64_t{1} << q_bits),
      slot_mask_(num_slots_ - 1),
      occupied_(num_slots_),
      continuation_(num_slots_),
      shifted_(num_slots_),
      tag_(has_tag ? num_slots_ : 0),
      remainders_(num_slots_, r_bits),
      values_(value_bits ? num_slots_ : 0,
              value_bits ? value_bits : 1) {}

size_t QuotientTable::SpaceBits() const {
  return num_slots_ * (3 + (has_tag_ ? 1 : 0) + r_bits_ + value_bits_);
}

uint64_t QuotientTable::FindRunStart(uint64_t q) const {
  // Walk left to the cluster start, then replay runs forward. A cluster
  // that starts kWalkSlots or more slots back goes to the word path.
  uint64_t b = q;
  uint64_t walked = 0;
  while (shifted_.Get(b)) {
    b = Prev(b);
    if (++walked == kWalkSlots && num_slots_ >= 64) {
      return FindRunStartInWords(q, b);
    }
  }
  uint64_t s = b;
  while (b != q) {
    do {
      s = Next(s);
    } while (continuation_.Get(s));  // Skip to the next run head.
    do {
      b = Next(b);
    } while (!occupied_.Get(b));  // Next quotient with a run.
  }
  return s;
}

uint64_t QuotientTable::FindRunStartInWords(uint64_t q,
                                            uint64_t from) const {
  // The table is whole words here: 2^q_bits slots with q_bits >= 6.
  const uint64_t last_word = slot_mask_ >> 6;
  // The cluster start b: the highest clear shifted bit at or below `from`,
  // scanning words downward and wrapping.
  uint64_t w = from >> 6;
  uint64_t unshifted = ~shifted_.Word(w) & LowMask((from & 63) + 1);
  while (unshifted == 0) {
    w = w == 0 ? last_word : w - 1;
    unshifted = ~shifted_.Word(w);
  }
  const uint64_t b = (w << 6) | HighestSetBit(unshifted);
  // k: the occupied quotients in (b, q]. Each owns one run of the
  // cluster after b's, in quotient order, so q's run is the k-th.
  uint64_t k = 0;
  uint64_t pos = Next(b);
  for (uint64_t left = (q - b) & slot_mask_; left > 0;) {
    const uint64_t off = pos & 63;
    const uint64_t n = std::min(64 - off, left);
    k += Popcount((occupied_.Word(pos >> 6) >> off) & LowMask(n));
    pos = (pos + n) & slot_mask_;
    left -= n;
  }
  // Within a cluster every slot is used, so run heads are the clear
  // continuation bits: q's run starts at the k-th one after b.
  pos = Next(b);
  while (true) {
    const uint64_t off = pos & 63;
    const uint64_t heads = ~continuation_.Word(pos >> 6) >> off;
    const uint64_t c = Popcount(heads);
    if (c >= k) return pos + SelectInWord(heads, static_cast<int>(k - 1));
    k -= c;
    pos = (pos + 64 - off) & slot_mask_;
  }
}

void QuotientTable::InsertSlotAt(uint64_t pos, uint64_t home,
                                 uint64_t remainder, bool continuation,
                                 bool tag, uint64_t value) {
  uint64_t cur_rem = remainder;
  uint64_t cur_val = value;
  bool cur_cont = continuation;
  bool cur_tag = tag;
  bool cur_shift = pos != home;
  uint64_t i = pos;
  while (!SlotEmpty(i)) {
    const uint64_t old_rem = remainders_.Get(i);
    const uint64_t old_val = value_bits_ ? values_.Get(i) : 0;
    const bool old_cont = continuation_.Get(i);
    const bool old_tag = has_tag_ && tag_.Get(i);
    remainders_.Set(i, cur_rem);
    if (value_bits_) values_.Set(i, cur_val);
    continuation_.Assign(i, cur_cont);
    if (has_tag_) tag_.Assign(i, cur_tag);
    shifted_.Assign(i, cur_shift);
    cur_rem = old_rem;
    cur_val = old_val;
    cur_cont = old_cont;
    cur_tag = old_tag;
    cur_shift = true;  // Every displaced slot is (now) shifted.
    i = Next(i);
  }
  remainders_.Set(i, cur_rem);
  if (value_bits_) values_.Set(i, cur_val);
  continuation_.Assign(i, cur_cont);
  if (has_tag_) tag_.Assign(i, cur_tag);
  shifted_.Assign(i, cur_shift);
  ++used_slots_;
}

void QuotientTable::RemoveSlotAt(uint64_t pos, uint64_t run_quotient) {
  uint64_t quot = run_quotient;
  uint64_t curr = pos;
  const uint64_t orig = pos;
  while (true) {
    const uint64_t next = Next(curr);
    const bool next_cluster_start =
        !continuation_.Get(next) && !shifted_.Get(next);
    if (SlotEmpty(next) || next_cluster_start || next == orig) {
      // Clear the vacated slot (occupied stays: it describes the index).
      continuation_.Assign(curr, false);
      shifted_.Assign(curr, false);
      if (has_tag_) tag_.Assign(curr, false);
      remainders_.Set(curr, 0);
      if (value_bits_) values_.Set(curr, 0);
      --used_slots_;
      return;
    }
    // Slide `next` into `curr`, fixing heads that reach their home slot.
    bool next_shifted = true;
    if (!continuation_.Get(next)) {
      do {
        quot = Next(quot);
      } while (!occupied_.Get(quot));
      if (curr == quot) next_shifted = false;
    }
    remainders_.Set(curr, remainders_.Get(next));
    if (value_bits_) values_.Set(curr, values_.Get(next));
    continuation_.Assign(curr, continuation_.Get(next));
    if (has_tag_) tag_.Assign(curr, has_tag_ && tag_.Get(next));
    shifted_.Assign(curr, next_shifted);
    curr = next;
  }
}

void QuotientTable::EraseFromRun(uint64_t q, uint64_t slot) {
  // The head is the run's one slot without a continuation bit.
  const bool was_head = !continuation_.Get(slot);
  if (was_head && !continuation_.Get(Next(slot))) occupied_.Clear(q);
  RemoveSlotAt(slot, q);
  if (was_head && continuation_.Get(slot)) {
    // Promote the run's second slot to head.
    continuation_.Clear(slot);
    if (slot == q) shifted_.Clear(slot);
  }
}

bool QuotientTable::Double() {
  if (r_bits_ <= 1 || has_tag_) return false;
  const int r = r_bits_ - 1;
  QuotientTable bigger(q_bits_ + 1, r, /*has_tag=*/false, value_bits_);
  ForEachSlot([&](uint64_t q, uint64_t slot) {
    const uint64_t fr = remainders_.Get(slot);
    const uint64_t low = fr & LowMask(r);
    bigger.InsertIntoRun(
        (q << 1) | (fr >> r), low,
        [&](uint64_t s) { return bigger.remainders_.Get(s) >= low; },
        /*tag=*/false, value(slot));
  });
  *this = std::move(bigger);
  return true;
}

void QuotientTable::ForEachSlot(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  if (used_slots_ == 0) return;
  // Start right after an empty slot so no cluster straddles the scan start.
  uint64_t start = num_slots_;  // Sentinel: no empty slot found.
  for (uint64_t i = 0; i < num_slots_; ++i) {
    if (SlotEmpty(i)) {
      start = i;
      break;
    }
  }
  // Load factor is capped below 1.0, so an empty slot always exists.
  if (start == num_slots_) return;  // Defensive: full table, cannot scan.
  std::deque<uint64_t> pending;
  uint64_t cur_q = 0;
  for (uint64_t k = 1; k <= num_slots_; ++k) {
    const uint64_t i = (start + k) & slot_mask_;
    if (occupied_.Get(i)) pending.push_back(i);
    if (SlotEmpty(i)) continue;
    if (!continuation_.Get(i)) {
      cur_q = pending.front();
      pending.pop_front();
    }
    fn(cur_q, i);
  }
}

bool QuotientTable::CheckInvariants() const {
  // Start right after an empty slot so no cluster straddles the walk.
  uint64_t start = 0;
  while (start < num_slots_ && !SlotEmpty(start)) ++start;
  if (start == num_slots_) return false;
  std::deque<uint64_t> pending;  // Occupied quotients awaiting their run.
  uint64_t used = 0;
  bool prev_used = false;
  for (uint64_t k = 1; k <= num_slots_; ++k) {
    const uint64_t i = (start + k) & slot_mask_;
    if (occupied_.Get(i)) pending.push_back(i);
    if (SlotEmpty(i)) {
      // Ends the cluster (the walk ends on `start`, itself empty), which
      // must have held the run of every occupied quotient in it.
      if (!pending.empty()) return false;
      prev_used = false;
      continue;
    }
    ++used;
    if (continuation_.Get(i)) {
      // A continuation extends a run and never sits at its home.
      if (!prev_used || !shifted_.Get(i)) return false;
    } else {
      // A run head belongs to the oldest pending quotient, is shifted
      // exactly when it sits past that home, and is never a counter digit.
      if (pending.empty() || (pending.front() == i) == shifted_.Get(i) ||
          tag(i)) {
        return false;
      }
      pending.pop_front();
    }
    prev_used = true;
  }
  return used == used_slots_;
}

void QuotientTable::Save(std::ostream& os) const {
  WriteI32(os, q_bits_);
  WriteI32(os, r_bits_);
  WriteI32(os, value_bits_);
  WriteI32(os, has_tag_ ? 1 : 0);
  WriteU64(os, used_slots_);
  occupied_.Save(os);
  continuation_.Save(os);
  shifted_.Save(os);
  tag_.Save(os);
  remainders_.Save(os);
  values_.Save(os);
}

bool QuotientTable::Parse(std::istream& is) {
  int32_t tag;
  if (!ReadI32(is, &q_bits_) || !ReadI32(is, &r_bits_) ||
      !ReadI32(is, &value_bits_) || !ReadI32(is, &tag) ||
      !ReadU64(is, &used_slots_) || q_bits_ < 1 || q_bits_ > 38 ||
      r_bits_ < 0 || r_bits_ > 64 || value_bits_ < 0 || value_bits_ > 64) {
    return false;
  }
  has_tag_ = tag != 0;
  num_slots_ = uint64_t{1} << q_bits_;
  slot_mask_ = num_slots_ - 1;
  // Every plane must cover exactly num_slots_.
  return occupied_.Load(is) && occupied_.size() == num_slots_ &&
         continuation_.Load(is) && continuation_.size() == num_slots_ &&
         shifted_.Load(is) && shifted_.size() == num_slots_ &&
         tag_.Load(is) && tag_.size() == (has_tag_ ? num_slots_ : 0) &&
         remainders_.Load(is) && remainders_.size() == num_slots_ &&
         remainders_.width() == r_bits_ && values_.Load(is) &&
         values_.size() == (value_bits_ ? num_slots_ : 0) &&
         (value_bits_ == 0 || values_.width() == value_bits_);
}

}  // namespace bbf
