#ifndef BBF_RANGE_MEMENTO_H_
#define BBF_RANGE_MEMENTO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string_view>

#include "core/filter.h"
#include "quotient/rsqf.h"
#include "range/range_filter.h"

namespace bbf {

/// Memento filter [Eslami & Dayan 2024, arXiv 2408.05625]: the *dynamic*
/// range filter the tutorial's §2.5 calls unsolved. Every other family in
/// src/range is static-or-rebuild; Memento supports online AddKey at
/// quotient-filter insert cost and expands by table doubling.
///
/// The idea: split each raw key into a prefix (the high 64-m bits) and an
/// m-bit *memento* (the low bits). The prefix is hashed into an RSQF
/// fingerprint — quotient fq, remainder fr — and the slot payload packs
/// `(fr << m) | memento`, so the sorted run of a quotient doubles as the
/// sorted memento list of each stored prefix. A range query touches at
/// most two boundary prefixes exactly (memento-window scan over one run
/// each) plus fingerprint-presence probes for fully-covered interior
/// prefixes, capped at kMaxInteriorProbes before giving up (admitting).
///
/// Correlation robustness falls out of the construction: a query landing
/// just above a stored key shares that key's *prefix*, and within a
/// prefix the mementos answer exactly — a false positive requires a
/// cross-prefix hash collision on (fq, fr), probability ~ load * 2^-r per
/// probed prefix regardless of how adversarially the queries hug the
/// keys. SuRF and Rosetta, which store key-derived prefixes verbatim,
/// degrade on exactly those workloads (EXPERIMENTS.md E27).
///
/// Expansion keeps the full (q + r)-bit fingerprint constant: each
/// doubling moves one bit from the remainder to the quotient
/// (q+1, r-1), re-splitting the stored fingerprints without touching the
/// original keys — the RSQF resize path. FPR doubles per expansion and
/// the path ends at r == 1, like ExpandingQuotientFilter.
///
/// MementoFilter is both a Filter (point membership; it rides the
/// registry, snapshot dispatcher, and obs hooks like any family) and a
/// RangeFilter (the LSM Scan path). Integer keys round-trip through the
/// bijective boundary mix (InverseMix64, the learned-filter precedent) so
/// range semantics see the *raw* key order; string keys degrade to
/// pseudo-random integers — membership stays exact, ranges are
/// meaningless, same as every range family.
class MementoFilter : public Filter, public RangeFilter {
 public:
  /// 2^q_bits quotients, r_bits of remainder, memento_bits of per-key
  /// memento (slot payload width r + m).
  MementoFilter(int q_bits, int r_bits, int memento_bits = kDefaultMementoBits,
                uint64_t hash_seed = 0x3E3);

  /// Sizes for n keys at a bounded-range FPR target: a query spanning at
  /// most 2^memento_bits raw values costs two boundary probes, each a
  /// load * 2^-r cross-prefix collision, so r = ceil(lg(2*load/fpr)).
  static MementoFilter ForCapacity(uint64_t n, double fpr,
                                   int memento_bits = kDefaultMementoBits);

  /// LSM build-path sizing: spends ~bits_per_key total, i.e.
  /// (2 + r + m + 0.25) / load per key, solving for r.
  static MementoFilter ForBitsPerKey(uint64_t n, double bits_per_key,
                                     int memento_bits = kDefaultMementoBits);

  /// Online insert of a raw integer key. Expands (doubling the table)
  /// when the load factor or slack is exhausted; returns false only when
  /// expansion itself is impossible (r == 1).
  bool AddKey(uint64_t key);

  // ----- Filter surface (point membership).

  using Filter::Contains;
  using Filter::Insert;

  bool Insert(HashedKey key) override {
    return AddKey(InverseMix64(key.value()));
  }
  bool Contains(HashedKey key) const override {
    const uint64_t raw = InverseMix64(key.value());
    return MayContainRange(raw, raw);
  }
  uint64_t NumKeys() const override { return num_keys_; }
  FilterClass Class() const override { return FilterClass::kSemiDynamic; }
  double LoadFactor() const override {
    return static_cast<double>(num_keys_) /
           static_cast<double>(num_quotients_);
  }

  // ----- RangeFilter surface.

  /// Emptiness query for the inclusive interval [lo, hi] of *raw* keys.
  bool MayContainRange(uint64_t lo, uint64_t hi) const override;

  // ----- Shared between the two bases: one override resolves both.

  size_t SpaceBits() const override { return table_.SpaceBits(); }
  std::string_view Name() const override { return "memento"; }
  bool Save(std::ostream& os) const override { return Filter::Save(os); }
  bool Load(std::istream& is) override { return Filter::Load(is); }
  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;

  int q_bits() const { return q_bits_; }
  int r_bits() const { return r_bits_; }
  int memento_bits() const { return m_bits_; }
  uint64_t expansions() const { return expansions_; }

  /// The table walk, with the key count as its used slots and every run
  /// sorted (the sorted-memento-list contract).
  bool CheckInvariants() const override {
    return table_.CheckInvariants(num_keys_, /*sorted=*/true);
  }

  static constexpr int kDefaultMementoBits = 8;
  static constexpr double kMaxLoadFactor = RsqfTable::kMaxLoadFactor;
  /// Interior (fully-covered) prefixes probed before a very wide range is
  /// admitted outright — the same give-up idiom as prefix-bloom/Grafite.
  static constexpr uint64_t kMaxInteriorProbes = 64;

 private:
  void Fingerprint(uint64_t prefix, uint64_t* fq, uint64_t* fr) const;
  /// One prefix probe: true when the run of the prefix's quotient holds
  /// its remainder with a memento in [m_lo, m_hi]. Reports the run-scan
  /// length through the metrics sink.
  bool ProbePrefix(uint64_t prefix, uint64_t m_lo, uint64_t m_hi) const;
  /// The RSQF resize path (RsqfTable::Double): a (q+1, r-1) table
  /// holding the same (q + r)-bit fingerprints. False when r == 1.
  bool Expand();

  int q_bits_;
  int r_bits_;
  int m_bits_;
  uint64_t hash_seed_;
  uint64_t num_quotients_;
  uint64_t num_keys_ = 0;
  uint64_t expansions_ = 0;
  RsqfTable table_;
};

}  // namespace bbf

#endif  // BBF_RANGE_MEMENTO_H_
