#ifndef BBF_CUCKOO_CUCKOO_TABLE_H_
#define BBF_CUCKOO_CUCKOO_TABLE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "core/key.h"
#include "simd/kernels.h"
#include "util/bits.h"
#include "util/compact_vector.h"
#include "util/hash.h"
#include "util/random.h"

namespace bbf {

/// Bucket engine of the cuckoo filter and the cuckoo maplet (§2.1, §2.4):
/// a power-of-two number of 4-slot buckets of fingerprints with
/// partial-key cuckoo hashing. Each key has two candidate buckets, the
/// second derived by XORing the first with a hash of the fingerprint, so
/// relocation never needs the original key. Inserts kick residents
/// between their two buckets; a chain that dead-ends parks its last
/// victim in a small stash, or, when the stash is full, is unwound
/// exactly. An optional value plane keeps one value per cell, moved with
/// every kick (the maplet).
///
/// Only this class reads buckets. It makes the one choice of bucket
/// match: the packed SIMD/SWAR kernel (src/simd) when four fingerprints
/// fit one word, the per-slot loop when they are wider than 16 bits.
/// Every order-sensitive choice follows the per-slot loop's slot order,
/// so table contents and snapshots are the same on every kernel.
///
/// Contains may run while a writer mutates the table, for a caller that
/// validates its answer with a sequence counter (DESIGN.md §9): Contains
/// reads fingerprint words, stash entries and the stash size through
/// acquire loads, and every mutation stores them with release stores.
/// On x86 both are plain moves. ContainsTile's batch kernel reads plain
/// words and needs the caller's lock.
class CuckooTable {
 public:
  static constexpr int kSlotsPerBucket = 4;
  static constexpr int kMaxKicks = 500;
  static constexpr size_t kMaxStash = 8;
  /// Most keys one ContainsTile call takes.
  static constexpr size_t kTile = 32;

  /// A key's fingerprint (never 0, which marks an empty cell) and its two
  /// candidate buckets.
  struct Probe {
    uint64_t fp;
    uint64_t i1;
    uint64_t i2;
  };

  /// The kick RNG starts at hash_seed * mul + add, at construction and
  /// again on Load, so each family keeps its own kick stream.
  struct KickSeed {
    uint64_t mul;
    uint64_t add;
  };

  /// Room for `expected_keys` at ~95% load. `value_bits` == 0 means no
  /// value plane.
  CuckooTable(uint64_t expected_keys, int fingerprint_bits, int value_bits,
              uint64_t hash_seed, KickSeed kick_seed);

  int fingerprint_bits() const { return fingerprint_bits_; }
  uint64_t num_cells() const { return fingerprints_.size(); }
  uint64_t num_keys() const { return num_keys_; }
  size_t stash_size() const { return stash_size_; }
  /// Every cell's fingerprint and value bits, plus 64 bits per stash entry
  /// (128 with a value plane).
  size_t SpaceBits() const {
    return num_cells() * (fingerprint_bits_ + values_.width()) +
           stash_size_ * (HasValues() ? 128 : 64);
  }

  Probe ProbeOf(HashedKey key) const {
    uint64_t fp = key.Derive(hash_seed_ + 1) & LowMask(fingerprint_bits_);
    if (fp == 0) fp = 1;
    const uint64_t i1 = key.Derive(hash_seed_) & (num_buckets_ - 1);
    return {fp, i1, AltIndex(i1, fp)};
  }

  /// Hints both candidate buckets' fingerprints into cache.
  void Prefetch(const Probe& p, bool for_write = false) const {
    fingerprints_.Prefetch(p.i1 * kSlotsPerBucket, kSlotsPerBucket,
                           for_write);
    fingerprints_.Prefetch(p.i2 * kSlotsPerBucket, kSlotsPerBucket,
                           for_write);
  }

  /// Stores (p.fp, value) in the lowest empty slot of bucket i1, then of
  /// i2, else through a kick chain. Returns false, table unchanged, only
  /// when the chain dead-ends with the stash full. `*kicks` (if given)
  /// gets the displacements walked: kMaxKicks for a dead end.
  bool Insert(const Probe& p, uint64_t value, uint64_t* kicks = nullptr) {
    if (TryPlace(p.i1, p.fp, value) || TryPlace(p.i2, p.fp, value)) {
      if (kicks != nullptr) *kicks = 0;
      ++num_keys_;
      return true;
    }
    return Kick(p, value, kicks);
  }

  /// Safe beside a concurrent writer (see the class comment), though its
  /// answer is then only as good as the caller's validation.
  bool Contains(const Probe& p) const {
    if (layout_.PackedEligible()) {
      if (simd::ActiveCuckooKernel().contains2(
              BucketBits(p.i1), BucketBits(p.i2), p.fp, layout_)) {
        return true;
      }
    } else if ((MatchMask(p.i1, p.fp) | MatchMask(p.i2, p.fp)) != 0) {
      return true;
    }
    return Acquire(stash_size_) != 0 && StashHolds(p);
  }

  /// Contains for n <= kTile keys whose buckets the caller prefetched.
  void ContainsTile(const Probe* p, size_t n, uint8_t* out) const;
  /// Cells and stash entries holding p.fp; one bucket when i1 == i2.
  uint64_t Count(const Probe& p) const;
  /// Values of the cells holding p.fp in interleaved slot order (i1.s,
  /// i2.s, i1.s+1, ...), then of the matching stash entries.
  std::vector<uint64_t> Values(const Probe& p) const;

  /// Removes one copy of p.fp: the first in interleaved slot order, else
  /// the first matching stash entry.
  bool Erase(const Probe& p);
  /// Removes one (p.fp, value) pair: the first in bucket i1's slot order,
  /// then i2's, then the stash's.
  bool EraseValue(const Probe& p, uint64_t value);

  /// Payload: f, hash seed, bucket count, key count, the fingerprint
  /// plane, the value plane (if any), then the stash. A stash entry is
  /// one word (bucket << f | fp) without a value plane, three words
  /// (bucket, fp, value) with one.
  bool Save(std::ostream& os) const;
  /// Reads a payload saved by a table of the same shape (value plane or
  /// not) into a fresh table and commits it through CheckInvariants.
  /// Rejects it, table unchanged, unless the geometry is sane and the
  /// fresh table holds its invariants.
  bool Load(std::istream& is);
  /// Each stash entry names a bucket of the table and a nonzero f-bit
  /// fingerprint, and the key count is the occupied cells plus the stash
  /// entries. Silent.
  bool CheckInvariants() const;

 private:
  struct StashEntry {
    uint64_t bucket;
    uint64_t fp;
    uint64_t value;  // 0 without a value plane.
  };

  template <typename T>
  static T Acquire(const T& word) {
    // The table's words are never const objects; the cast only lets a
    // const probe name them.
    return std::atomic_ref<T>(const_cast<T&>(word))
        .load(std::memory_order_acquire);
  }
  template <typename T>
  static void Release(T& word, T value) {
    std::atomic_ref<T>(word).store(value, std::memory_order_release);
  }

  bool HasValues() const { return values_.width() != 0; }
  uint64_t AltIndex(uint64_t index, uint64_t fp) const {
    // Partial-key cuckoo hashing: the pair relation is an involution.
    return (index ^ Hash64(fp, hash_seed_ + 2)) & (num_buckets_ - 1);
  }
  /// Bits [pos, pos + width) of the fingerprint plane, one acquire load
  /// per word: BitVector::GetBits for a reader that may overlap a writer.
  uint64_t LoadBits(uint64_t pos, int width) const {
    const uint64_t* words = fingerprints_.Words();
    const uint64_t w = pos >> 6;
    const int off = static_cast<int>(pos & 63);
    uint64_t v = Acquire(words[w]) >> off;
    if (off + width > 64) v |= Acquire(words[w + 1]) << (64 - off);
    return v & LowMask(width);
  }
  /// The whole bucket as one packed word; only when PackedEligible().
  uint64_t BucketBits(uint64_t bucket) const {
    return LoadBits(fingerprints_.BitOffset(bucket * kSlotsPerBucket),
                    fingerprint_bits_ * kSlotsPerBucket);
  }
  /// The one bucket match: bit s is set when slot s of `bucket` holds
  /// `fp` (fp == 0 finds the empty slots).
  uint32_t MatchMask(uint64_t bucket, uint64_t fp) const {
    if (layout_.PackedEligible()) {
      return simd::ActiveCuckooKernel().match_mask(BucketBits(bucket), fp,
                                                   layout_);
    }
    uint32_t mask = 0;
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      const uint64_t cell = bucket * kSlotsPerBucket + s;
      mask |= static_cast<uint32_t>(
                  LoadBits(fingerprints_.BitOffset(cell), fingerprint_bits_) ==
                  fp)
              << s;
    }
    return mask;
  }
  uint64_t Value(uint64_t cell) const {
    return HasValues() ? values_.Get(cell) : 0;
  }
  /// Stores a cell's fingerprint with one release store per word it
  /// touches (BitVector::SetBits for readers that may overlap), and its
  /// value, which only locked callers read, plainly.
  void SetCell(uint64_t cell, uint64_t fp, uint64_t value) {
    uint64_t* words = fingerprints_.MutableWords();
    const uint64_t pos = fingerprints_.BitOffset(cell);
    const int width = fingerprint_bits_;
    fp &= LowMask(width);
    const uint64_t w = pos >> 6;
    const int off = static_cast<int>(pos & 63);
    Release(words[w], (words[w] & ~(LowMask(width) << off)) | (fp << off));
    if (off + width > 64) {
      const int spill = off + width - 64;
      Release(words[w + 1],
              (words[w + 1] & ~LowMask(spill)) | (fp >> (width - spill)));
    }
    if (HasValues()) values_.Set(cell, value);
  }
  void ClearCell(uint64_t cell) {
    SetCell(cell, 0, 0);
    --num_keys_;
  }
  bool TryPlace(uint64_t bucket, uint64_t fp, uint64_t value) {
    // The lowest empty slot, on every kernel: kick chains, and so
    // snapshots, stay kernel-independent.
    const uint32_t empty = MatchMask(bucket, 0);
    if (empty == 0) return false;
    SetCell(bucket * kSlotsPerBucket + CountTrailingZeros(empty), fp, value);
    return true;
  }
  /// Insert's kick chain, for when neither candidate bucket has room.
  bool Kick(const Probe& p, uint64_t value, uint64_t* kicks);
  /// Whether stash entry `e` holds `fp` for `bucket`. Without a value
  /// plane the one-word stash format (bucket << f | fp) keeps only the low
  /// 64 - f bucket bits, so only those take part, before a reload as after.
  bool InStash(const StashEntry& e, uint64_t bucket, uint64_t fp) const {
    const uint64_t mask =
        HasValues() ? ~uint64_t{0} : LowMask(64 - fingerprint_bits_);
    return e.fp == fp && ((e.bucket ^ bucket) & mask) == 0;
  }
  bool Holds(const StashEntry& e, const Probe& p) const {
    return InStash(e, p.i1, p.fp) || InStash(e, p.i2, p.fp);
  }
  /// The live stash entries, for callers that exclude writers.
  std::span<const StashEntry> Stash() const {
    return {stash_.data(), stash_size_};
  }
  /// Writes stash entry i's bucket and fingerprint with release stores.
  void SetStashEntry(size_t i, const StashEntry& e) {
    Release(stash_[i].bucket, e.bucket);
    Release(stash_[i].fp, e.fp);
    stash_[i].value = e.value;
  }
  /// Whether a stash entry holds the key, through acquire loads.
  bool StashHolds(const Probe& p) const;
  /// Removes the first stash entry holding (p.fp, value).
  bool EraseFromStash(const Probe& p, uint64_t value);

  uint64_t num_buckets_;
  int fingerprint_bits_;
  uint64_t hash_seed_;
  KickSeed kick_seed_;
  // SWAR constants for the packed kernels; PackedEligible() is false for
  // fingerprints wider than 16 bits, which take the per-slot loop.
  simd::BucketLayout layout_;
  CompactVector fingerprints_;  // num_buckets * 4 cells; 0 = empty.
  CompactVector values_;        // Width 0 without a value plane.
  // Homeless kick victims (rare), in arrival order: a fixed array, so a
  // reader that overlaps a writer never follows a reallocated buffer.
  std::array<StashEntry, kMaxStash> stash_{};
  size_t stash_size_ = 0;
  SplitMix64 kick_rng_;
  uint64_t num_keys_ = 0;
};

}  // namespace bbf

#endif  // BBF_CUCKOO_CUCKOO_TABLE_H_
