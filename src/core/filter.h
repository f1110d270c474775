#ifndef BBF_CORE_FILTER_H_
#define BBF_CORE_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string_view>

#include "core/key.h"

namespace bbf {

class MetricsSink;

/// Taxonomy of §2 of the paper: static filters are built once from a known
/// key set; semi-dynamic filters support inserts but not deletes; dynamic
/// filters support both.
enum class FilterClass {
  kStatic,
  kSemiDynamic,
  kDynamic,
};

/// Structured insert result for serving layers (DESIGN.md §9). A bare
/// bool conflates "stored normally" with "stored, but the filter had to
/// degrade itself to take it" — callers driving admission control and
/// rebalancing need the distinction.
enum class InsertOutcome : uint8_t {
  kAccepted,      // Stored in the current structure, below saturation.
  kExpanded,      // Stored, but only by expanding or chaining a generation.
  kRejectedFull,  // Not stored; the key is NOT queryable. State unchanged.
};

/// True when the key was actually stored (and is therefore queryable).
constexpr bool Accepted(InsertOutcome outcome) {
  return outcome != InsertOutcome::kRejectedFull;
}

/// The "modern filter API" (§1, §1.1): a point-membership filter over
/// keys hashed exactly once at the boundary (DESIGN.md §10).
///
/// The primitive operations are the HashedKey virtuals: families consume
/// the canonical mix (via HashedKey::Derive streams) and never see — or
/// re-hash — the raw key. The `uint64_t` and `std::string_view` overloads
/// are thin non-virtual wrappers that perform the one canonical mix and
/// forward. Subclasses override the HashedKey virtuals and pull the
/// wrappers back into scope with `using Filter::Insert;` etc. (C++ name
/// hiding would otherwise shadow them).
///
/// Implementations return `false` from Insert when the structure is full
/// (fingerprint filters have a load-factor limit) and from Erase when
/// deletion is unsupported or the key's fingerprint is absent. Contains is
/// approximate in one direction only: no false negatives, false positives
/// with probability <= epsilon.
class Filter {
 public:
  virtual ~Filter() = default;

  // ----- Boundary wrappers: mix once, forward. Non-virtual on purpose.

  bool Insert(uint64_t key) { return Insert(HashedKey(key)); }
  bool Insert(std::string_view key) { return Insert(HashedKey(key)); }
  bool Contains(uint64_t key) const { return Contains(HashedKey(key)); }
  bool Contains(std::string_view key) const {
    return Contains(HashedKey(key));
  }
  bool Erase(uint64_t key) { return Erase(HashedKey(key)); }
  bool Erase(std::string_view key) { return Erase(HashedKey(key)); }
  uint64_t Count(uint64_t key) const { return Count(HashedKey(key)); }
  uint64_t Count(std::string_view key) const {
    return Count(HashedKey(key));
  }

  /// Batched wrappers: hash the whole tile once into a stack scratch
  /// buffer, then run the HashedKey batch primitive — so shard grouping
  /// and prefetch pipelines downstream reuse the same mixes.
  void ContainsMany(std::span<const uint64_t> keys, uint8_t* out) const;
  size_t InsertMany(std::span<const uint64_t> keys);

  // ----- Primitive virtuals (families implement these).

  /// Adds `key`. Returns false if the filter is full or insert-incapable.
  virtual bool Insert(HashedKey key) = 0;

  /// Membership query: always true for inserted keys; true with probability
  /// <= epsilon for others.
  virtual bool Contains(HashedKey key) const = 0;

  /// Contains for a reader that holds no lock and validates afterwards
  /// with a sequence counter (ShardedFilter's seqlock read path, DESIGN.md
  /// §9). A family that answers reads every word a writer may change
  /// through an acquire load, and its writers store those words with
  /// release stores, so the overlapping probe is free of data races; an
  /// answer from a probe that overlapped a writer may still be wrong, and
  /// the caller discards it. nullopt means the family cannot probe while
  /// a writer runs: the default, which touches no member. Whether a
  /// family answers is fixed per family, whatever the key or the state.
  virtual std::optional<bool> SpeculativeContains(HashedKey) const {
    return std::nullopt;
  }

  /// Batched membership: writes 0/1 to `out[i]` for each `keys[i]`,
  /// bit-for-bit identical to calling Contains in a loop. The base
  /// implementation is that loop; hot families override it with a
  /// prefetch-pipelined two-pass path (derive the whole batch, issue a
  /// software prefetch for every target cache line, then probe), which
  /// hides DRAM latency when the filter is larger than the LLC. Real
  /// deployments (LSM compaction, join pre-filters, k-mer lookup) query in
  /// batches, so this is the intended hot-path entry point.
  virtual void ContainsMany(std::span<const HashedKey> keys,
                            uint8_t* out) const;

  /// Batched insert: attempts every key in order and returns the number
  /// successfully inserted. Equivalent to summing Insert over the batch —
  /// including the full-filter failure path, where individual inserts
  /// return false but later keys are still attempted.
  virtual size_t InsertMany(std::span<const HashedKey> keys);

  /// Removes one occurrence of `key`. Only meaningful for dynamic filters;
  /// default implementation reports lack of support.
  virtual bool Erase(HashedKey key);

  /// Batched erase: writes 1 to `out[i]` when keys[i] was erased and 0
  /// otherwise, bit-for-bit identical to calling Erase in order. The base
  /// implementation is that loop; a wrapper that locks per key
  /// (ShardedFilter) overrides it to lock once per batch.
  virtual void EraseMany(std::span<const HashedKey> keys, uint8_t* out);

  /// Multiplicity query (counting filters, §2.6). Default: 0/1 membership.
  virtual uint64_t Count(HashedKey key) const;

  /// Occupied-structure size in bits, for bits/key accounting.
  virtual size_t SpaceBits() const = 0;

  /// Number of keys currently represented (with multiplicity).
  virtual uint64_t NumKeys() const = 0;

  /// Fraction of nominal capacity in use, the saturation signal behind
  /// the overload policies of DESIGN.md §9. Conventions: fixed-capacity
  /// families report keys / design capacity (>= 1.0 means Insert is at
  /// or past its reliable range); self-expanding families report the
  /// load of their *current* generation, which drops after each
  /// expansion; static filters report 1.0 — they are full by
  /// construction. The default, for wrappers with no meaningful bound,
  /// is 0.0 ("never saturates").
  virtual double LoadFactor() const;

  /// Static / semi-dynamic / dynamic, per the paper's taxonomy.
  virtual FilterClass Class() const = 0;

  /// Short human-readable name ("bloom", "quotient", ...). Doubles as the
  /// snapshot frame tag, so it must be stable across versions.
  virtual std::string_view Name() const = 0;

  /// Writes a crash-safe snapshot: a self-describing frame (magic, format
  /// version, Name() tag, payload length, checksum — DESIGN.md §8) around
  /// the class-specific payload. Returns false if this filter does not
  /// support snapshots or the stream failed.
  virtual bool Save(std::ostream& os) const;

  /// Reads and verifies a frame written by Save. Any defect — bad magic,
  /// wrong tag, truncation, bit flips, hostile length fields — returns
  /// false and leaves the filter in its prior, fully usable state. A true
  /// return restores the exact saved state (bit-for-bit Contains/Count
  /// behaviour).
  virtual bool Load(std::istream& is);

  /// Payload hooks behind Save/Load: raw member serialization without
  /// framing or integrity checks. LoadPayload reads a checksum-verified
  /// buffer that may still be foreign or hostile (DESIGN.md §8): it
  /// parses into a fresh instance of its class, rejecting lengths past
  /// their caps and geometry that disagrees with the declared sizes, and
  /// ends in CommitLoaded (util/serialize.h), which replaces *this only
  /// when the fresh instance's CheckInvariants holds. A failed load
  /// leaves *this untouched. Defaults report "snapshots unsupported".
  virtual bool SavePayload(std::ostream& os) const;
  virtual bool LoadPayload(std::istream& is);

  /// Structural self-check, silent: true when the state holds what this
  /// family's operations keep (counts that match the structure, runs and
  /// blocks that a probe can walk). Every load runs it before committing,
  /// and tests call it on live filters. It covers the fields its class
  /// parses and the engine table it owns; a nested filter (a link,
  /// stage, spare or base) is checked by its own load, so no load walks
  /// a structure twice. Default: nothing to check.
  virtual bool CheckInvariants() const { return true; }

  /// Bits per stored key at the current occupancy.
  double BitsPerKey() const {
    const uint64_t n = NumKeys();
    return n == 0 ? 0.0 : static_cast<double>(SpaceBits()) / n;
  }

  /// Attaches (or detaches, with nullptr) a structural-event listener
  /// (DESIGN.md §11). Families report kick chains, probe scans,
  /// expansions, and adapt repairs through it; a null sink — the default
  /// — costs one predictable branch per reporting site. Wrappers that own
  /// inner filters (ShardedFilter) override to propagate the sink; call
  /// before concurrent use, the pointer itself is unsynchronized.
  virtual void AttachMetricsSink(MetricsSink* sink) { sink_ = sink; }
  MetricsSink* metrics_sink() const { return sink_; }

 protected:
  /// Event listener for families to report through; null when
  /// uninstrumented.
  MetricsSink* sink_ = nullptr;
};

/// Extension point for adaptive filters (§2.3): the fronted dictionary
/// reports a confirmed false positive, and the filter restructures so the
/// same query cannot trigger it again.
class AdaptiveHook {
 public:
  virtual ~AdaptiveHook() = default;

  /// Boundary wrappers, mirroring Filter's: mix once and forward.
  bool ReportFalsePositive(uint64_t key) {
    return ReportFalsePositive(HashedKey(key));
  }
  bool ReportFalsePositive(std::string_view key) {
    return ReportFalsePositive(HashedKey(key));
  }

  /// Notifies the filter that `key` produced a false positive. Returns true
  /// if the filter adapted (subsequent Contains(key) will be false).
  virtual bool ReportFalsePositive(HashedKey key) = 0;
};

}  // namespace bbf

#endif  // BBF_CORE_FILTER_H_
