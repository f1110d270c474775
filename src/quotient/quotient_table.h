#ifndef BBF_QUOTIENT_QUOTIENT_TABLE_H_
#define BBF_QUOTIENT_QUOTIENT_TABLE_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>

#include "util/bit_vector.h"
#include "util/compact_vector.h"

namespace bbf {

/// Physical layer shared by every quotient-filter variant (§2.1): a table
/// of 2^q slots, each holding an r-bit remainder plus the classic three
/// metadata bits — is_occupied / is_continuation / is_shifted — stored as
/// separate bit planes. Collisions are resolved Robin-Hood style: runs of
/// remainders sharing a quotient are kept contiguous, shifted right as
/// needed, with wraparound.
///
/// Two optional per-slot planes ride along with the remainders during
/// shifts: a 1-bit *tag* (used by the counting variant to mark counter
/// digits) and a v-bit *value* (used by the maplet variant).
///
/// Only this class knows the metadata layout. Variants reach slots through
/// the run API (ScanRun, InsertIntoRun, EraseFromRun) and touch nothing but
/// slot payloads (remainder, tag, value); fingerprint semantics, including
/// the order kept within a run, live in the variant classes.
class QuotientTable {
 public:
  QuotientTable() = default;

  /// 2^q_bits slots of r_bits remainders; value_bits may be 0.
  QuotientTable(int q_bits, int r_bits, bool has_tag = false,
                int value_bits = 0);

  int q_bits() const { return q_bits_; }
  int r_bits() const { return r_bits_; }
  int value_bits() const { return value_bits_; }
  bool has_tag() const { return has_tag_; }
  uint64_t num_slots() const { return num_slots_; }
  uint64_t num_used_slots() const { return used_slots_; }
  double LoadFactor() const {
    return static_cast<double>(used_slots_) / num_slots_;
  }

  /// Total bits of all planes (remainders + metadata + tag + values).
  size_t SpaceBits() const;

  // --- Slot payloads --------------------------------------------------------
  bool tag(uint64_t i) const { return has_tag_ && tag_.Get(i); }
  uint64_t remainder(uint64_t i) const { return remainders_.Get(i); }
  uint64_t value(uint64_t i) const {
    return value_bits_ ? values_.Get(i) : 0;
  }
  void set_remainder(uint64_t i, uint64_t r) { remainders_.Set(i, r); }

  /// Hints the cache lines a probe of slot `i` touches first: the three
  /// metadata planes and the remainder word. Cluster walks may run past
  /// them, but the home-slot lines dominate at sane load factors.
  void PrefetchSlot(uint64_t i, bool for_write = false) const {
    occupied_.PrefetchBit(i, for_write);
    continuation_.PrefetchBit(i, for_write);
    shifted_.PrefetchBit(i, for_write);
    remainders_.Prefetch(i, 1, for_write);
  }

  uint64_t Next(uint64_t i) const { return (i + 1) & slot_mask_; }

  // --- Run API --------------------------------------------------------------

  /// Shifted slots a run lookup walks back over one bit at a time. Past
  /// them it switches to word operations, whose popcounts cost more than
  /// a short walk: a baseline x86-64 build makes each one a libgcc call.
  static constexpr uint64_t kWalkSlots = 8;

  /// Calls `fn(slot)` for the slots of quotient `q`'s run in storage order;
  /// stops early when fn returns false. Returns the number of slots
  /// visited (0 = `q` has no run).
  template <typename Fn>
  uint64_t ScanRun(uint64_t q, Fn&& fn) const {
    if (!occupied_.Get(q)) return 0;
    uint64_t s = FindRunStart(q);
    uint64_t visited = 0;
    do {
      ++visited;
      if (!fn(s)) break;
      s = Next(s);
    } while (continuation_.Get(s));
    return visited;
  }

  /// Inserts a slot holding (`remainder`, `tag`, `value`) into quotient
  /// `q`'s run, in front of the first run slot `s` for which `before(s)`
  /// holds, or behind the run's last slot when none does; starts the run
  /// when `q` has none. Returns false (table unchanged) when the insert
  /// would fill the last empty slot, which cluster walks rely on.
  template <typename Pred>
  bool InsertIntoRun(uint64_t q, uint64_t remainder, Pred&& before,
                     bool tag = false, uint64_t value = 0) {
    if (used_slots_ + 1 >= num_slots_) return false;
    if (SlotEmpty(q)) {
      // The occupied bit goes last: InsertSlotAt must see the slot empty.
      InsertSlotAt(q, q, remainder, /*continuation=*/false, tag, value);
      occupied_.Set(q);
      return true;
    }
    const bool had_run = occupied_.Get(q);
    occupied_.Set(q);
    const uint64_t start = FindRunStart(q);
    uint64_t s = start;
    if (had_run) {
      while (!before(s)) {
        s = Next(s);
        if (!continuation_.Get(s)) break;
      }
      // A new head pushes the old one right, where it continues the run.
      if (s == start) continuation_.Set(start);
    }
    InsertSlotAt(s, q, remainder, /*continuation=*/s != start, tag, value);
    return true;
  }

  /// Removes `slot`, which must lie in quotient `q`'s run, promoting the
  /// run's second slot when the head goes.
  void EraseFromRun(uint64_t q, uint64_t slot);

  /// Bit-sacrifice doubling (§2.2): 2^(q+1) slots of (r-1)-bit remainders,
  /// each stored remainder's top bit moving into the quotient's low bit,
  /// exactly where a fresh split of the same hash puts it. Values ride
  /// along; runs stay sorted by remainder. Returns false (table unchanged)
  /// once remainders are down to one bit, or for a tagged table.
  bool Double();

  /// Visits every stored slot as (quotient, slot_index). Slots of one run
  /// are visited in order. Requires at least one empty slot.
  void ForEachSlot(
      const std::function<void(uint64_t quotient, uint64_t slot)>& fn) const;

  /// Structural self-check, one linear pass over the planes: every run
  /// lies in a cluster that starts at its quotient's home, the shifted
  /// bits agree, no counter digit heads a run, a slot stays empty, and
  /// the used-slot count matches the planes. Silent.
  bool CheckInvariants() const;

  /// Binary serialization of the full table state. Parse reads a Save
  /// stream into this table (its owner's fresh instance) and rejects
  /// geometry that disagrees with the declared sizes; the owner's commit
  /// checks the structure through CheckInvariants (DESIGN.md §8).
  void Save(std::ostream& os) const;
  bool Parse(std::istream& is);

 private:
  bool SlotEmpty(uint64_t i) const {
    return !occupied_.Get(i) && !continuation_.Get(i) && !shifted_.Get(i);
  }
  uint64_t Prev(uint64_t i) const { return (i - 1) & slot_mask_; }

  /// Start slot of the run for quotient `q`. Requires occupied(q). Walks
  /// slot by slot while the cluster starts fewer than kWalkSlots slots
  /// back (nearly every probe at low load), else finds the run with word
  /// operations on the metadata planes (DESIGN.md §6.1).
  uint64_t FindRunStart(uint64_t q) const;
  /// FindRunStart's word path: `from` is the highest slot below q whose
  /// shifted bit is still unread. Requires num_slots_ >= 64.
  uint64_t FindRunStartInWords(uint64_t q, uint64_t from) const;

  /// Inserts a slot holding (`remainder`, `value`, `tag`) at position `pos`,
  /// shifting the remaining cluster right. `continuation` is the bit for
  /// the new slot; displaced slots keep their continuation/tag/value bits
  /// and become shifted. `home` is the quotient of the inserted entry (used
  /// to decide its shifted bit).
  void InsertSlotAt(uint64_t pos, uint64_t home, uint64_t remainder,
                    bool continuation, bool tag, uint64_t value);

  /// Removes the slot at `pos`, left-shifting the rest of the cluster and
  /// fixing shifted bits of run heads that slide into their home slots.
  /// `run_quotient` is the quotient of the run containing `pos`. Does not
  /// touch occupied bits.
  void RemoveSlotAt(uint64_t pos, uint64_t run_quotient);

  int q_bits_ = 0;
  int r_bits_ = 0;
  int value_bits_ = 0;
  bool has_tag_ = false;
  uint64_t num_slots_ = 0;
  uint64_t slot_mask_ = 0;
  uint64_t used_slots_ = 0;

  BitVector occupied_;
  BitVector continuation_;
  BitVector shifted_;
  BitVector tag_;
  CompactVector remainders_;
  CompactVector values_;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_QUOTIENT_TABLE_H_
