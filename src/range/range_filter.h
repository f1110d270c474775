#ifndef BBF_RANGE_RANGE_FILTER_H_
#define BBF_RANGE_RANGE_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string_view>

#include "util/serialize.h"

namespace bbf {

/// Range-filter API (§2.5): the eps-approximate range-emptiness problem.
/// Built statically over a set of 64-bit integer keys (every practical
/// range filter the tutorial covers is static; "a dynamic and expandable
/// range filter is still an unsolved problem").
///
/// MayContainRange must return true whenever some stored key lies in
/// [lo, hi] (no false negatives) and should return false with probability
/// >= 1 - eps otherwise.
class RangeFilter {
 public:
  virtual ~RangeFilter() = default;

  /// Emptiness query for the inclusive interval [lo, hi].
  virtual bool MayContainRange(uint64_t lo, uint64_t hi) const = 0;

  /// Point query (range of length 1).
  virtual bool MayContain(uint64_t key) const {
    return MayContainRange(key, key);
  }

  virtual size_t SpaceBits() const = 0;
  virtual std::string_view Name() const = 0;

  /// Snapshot support, mirroring Filter (DESIGN.md §8): the same framed
  /// format with Name() as the tag. Families without SavePayload /
  /// LoadPayload overrides report failure rather than writing partial
  /// frames.
  virtual bool Save(std::ostream& os) const {
    return SaveFramed(os, Name(),
                      [this](std::ostream& ps) { return SavePayload(ps); });
  }
  virtual bool Load(std::istream& is) {
    return LoadFramed(is, Name(),
                      [this](std::istream& ps) { return LoadPayload(ps); });
  }
  virtual bool SavePayload(std::ostream&) const { return false; }
  virtual bool LoadPayload(std::istream&) { return false; }
  /// Structural self-check run before a load commits (Filter's contract).
  virtual bool CheckInvariants() const { return true; }
};

}  // namespace bbf

#endif  // BBF_RANGE_RANGE_FILTER_H_
