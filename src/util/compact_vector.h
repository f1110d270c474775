#ifndef BBF_UTIL_COMPACT_VECTOR_H_
#define BBF_UTIL_COMPACT_VECTOR_H_

#include <cstddef>
#include <cstdint>

#include "util/bit_vector.h"

namespace bbf {

/// A vector of fixed-width integers packed into a bit vector. The width is
/// chosen at construction (1..64 bits). This is the remainder/value store
/// for every fingerprint-based filter in the library.
class CompactVector {
 public:
  CompactVector() = default;
  /// Creates `n` zero entries of `width` bits each.
  CompactVector(uint64_t n, int width);

  uint64_t size() const { return size_; }
  int width() const { return width_; }

  uint64_t Get(uint64_t i) const { return bits_.GetBits(i * width_, width_); }
  void Set(uint64_t i, uint64_t v) { bits_.SetBits(i * width_, width_, v); }

  /// Packed read of entries [i, i+4) as one word: entry i in the low
  /// `width()` bits, entry i+3 in the top field, upper bits zero. This is
  /// the whole 4-slot bucket of a cuckoo-family filter in one load, fed to
  /// the SIMD/SWAR match kernels (src/simd). Requires 4 * width() <= 64.
  uint64_t GetRun4(uint64_t i) const {
    return bits_.GetBits(i * width_, width_ * 4);
  }

  /// Raw word storage plus the bit offset of entry `i`, for kernels that
  /// read packed runs themselves.
  const uint64_t* Words() const { return bits_.Words(); }
  uint64_t* MutableWords() { return bits_.MutableWords(); }
  uint64_t BitOffset(uint64_t i) const { return i * width_; }

  /// Hints the cache lines holding entries [i, i + count) into cache; the
  /// batched filter paths prefetch whole buckets before probing them.
  void Prefetch(uint64_t i, uint64_t count = 1, bool for_write = false) const {
    const uint64_t first = i * width_;
    const uint64_t last = (i + count) * width_ - 1;
    bits_.PrefetchBit(first, for_write);
    if ((last >> 6) != (first >> 6)) bits_.PrefetchBit(last, for_write);
  }

  /// Resizes to `n` entries, preserving existing values; new entries zero.
  void Resize(uint64_t n);

  /// Sets all entries to zero.
  void Reset() { bits_.Reset(); }

  size_t MemoryUsageBytes() const { return bits_.MemoryUsageBytes(); }

  /// Binary serialization; Load returns false on bad input.
  void Save(std::ostream& os) const;
  bool Load(std::istream& is);

 private:
  uint64_t size_ = 0;
  int width_ = 0;
  BitVector bits_;
};

}  // namespace bbf

#endif  // BBF_UTIL_COMPACT_VECTOR_H_
