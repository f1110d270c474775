#ifndef BBF_CORE_KEY_H_
#define BBF_CORE_KEY_H_

#include <cstdint>
#include <string_view>

#include "util/hash.h"

namespace bbf {

/// A key hashed exactly once at the API boundary (DESIGN.md §10).
///
/// The paper's modern filter API treats a key as "hashed once": every
/// downstream structure — shard router, quotient, fingerprint, probe
/// sequence — is a *view* of one canonical 64-bit mix. HashedKey is that
/// mix as a value type. It is produced from a raw `uint64_t` (via the
/// bijective Mix64 finalizer) or from a byte string (via HashBytes), and
/// from then on no layer touches the original key again.
///
/// Three disjoint ways to consume it:
///  - Routing layers (ShardedFilter, snapshot sharding) may slice the
///    canonical bits directly via value() — `value() % num_shards`,
///    which for a power-of-two shard count reads only the low bits (and
///    ShardedFilter takes them by mask).
///  - The observed-FPR estimator samples keys whose value() has its top
///    6 bits zero (ObservedFprEstimator::InDomain). A sampled mix is
///    still uniform below those bits, so routing spreads the sample
///    evenly and every shard scores its 1-in-64 share.
///  - Families must derive their structural bits (bucket, quotient,
///    fingerprint, probe offsets) through Derive(stream), a seeded
///    single-multiply remix. Streams with different ids are independent,
///    and — crucially — independent of any bit-slice of value(), so shard
///    routing cannot bias a family's fingerprint distribution.
///
/// Constructors are explicit so a raw integer can never silently become a
/// HashedKey (or worse, a HashedKey be re-mixed as if it were raw).
class HashedKey {
 public:
  /// The canonical mix of a 64-bit key. Mix64 is bijective, so integer
  /// keys keep their exact-identity semantics (no added collisions).
  explicit HashedKey(uint64_t key) : h_(Mix64(key)) {}

  /// The canonical mix of a byte-string key: hashed to 64 bits here, at
  /// the boundary, and never re-read. kStringSeed domain-separates string
  /// keys from the integer-key mix.
  explicit HashedKey(std::string_view key)
      : h_(HashBytes(key, kStringSeed)) {}

  /// Wraps an already-canonical mix (a value() that was stored, shipped,
  /// or grouped earlier). Never pass a raw key here.
  static HashedKey FromMix(uint64_t mixed) { return HashedKey(mixed, 0); }

  /// Trivial, so a stack scratch array costs nothing until written:
  /// `HashedKey k;` holds an indeterminate value, while `HashedKey{}` and
  /// `std::vector<HashedKey>(n)` still value-initialize to zero.
  HashedKey() = default;

  /// The canonical 64-bit mix. Routing layers may slice this; families
  /// must use Derive instead.
  uint64_t value() const { return h_; }

  /// An independent 64-bit stream derived from the canonical mix: the
  /// stream id is spread into a 64-bit constant (golden-ratio odd
  /// multiple) and xored into the mix, then one widening multiply by a
  /// fixed strong odd constant, xor-folded (Mum). The stream constant
  /// must be XORED into the multiplicand, not used AS the multiplier:
  /// multipliers of related streams (kGolden*3 vs kGolden*5) are linearly
  /// related, which leaves their products — and the low bits families
  /// mask off — jointly biased. The xor perturbs the multiplicand
  /// nonlinearly with respect to the multiply, so distinct streams are
  /// pairwise independent — safe as Kirsch–Mitzenmacher h1/h2 pairs or
  /// per-generation seeds. The hash-quality test (hash_quality_test.cc)
  /// enforces avalanche, uniformity, and joint-stream independence on
  /// this exact pipeline.
  uint64_t Derive(uint64_t stream) const {
    return Mum(h_ ^ (kGolden * (2 * stream + 1)), kDeriveMul);
  }

  friend bool operator==(HashedKey a, HashedKey b) { return a.h_ == b.h_; }
  friend bool operator!=(HashedKey a, HashedKey b) { return a.h_ != b.h_; }

  /// Seed domain-separating string keys from integer keys.
  static constexpr uint64_t kStringSeed = 0x5ce7b10ca11ed0e5ULL;

 private:
  HashedKey(uint64_t mixed, int /*already_mixed*/) : h_(mixed) {}

  static constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  static constexpr uint64_t kDeriveMul = 0xe7037ed1a0b428dbULL;

  uint64_t h_;
};

}  // namespace bbf

#endif  // BBF_CORE_KEY_H_
