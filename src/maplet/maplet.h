#ifndef BBF_MAPLET_MAPLET_H_
#define BBF_MAPLET_MAPLET_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string_view>
#include <vector>

#include "core/key.h"
#include "util/serialize.h"

namespace bbf {

/// The unified maplet API (§2.4): a key-value filter. Lookup returns the
/// target key's value plus possibly a few arbitrary extras (positive
/// result size, PRS) and may return arbitrary values for absent keys
/// (negative result size, NRS); the application deals with the noise.
/// QuotientMaplet, CuckooMaplet and BloomierFilter implement it.
class Maplet {
 public:
  virtual ~Maplet() = default;

  /// Associates a value with a key. Static maplets return false.
  /// The HashedKey overloads are the primitives; the uint64_t wrappers
  /// hash once at this boundary (mirroring Filter's hash-once pipeline).
  virtual bool Insert(HashedKey key, uint64_t value) = 0;
  bool Insert(uint64_t key, uint64_t value) {
    return Insert(HashedKey(key), value);
  }

  /// Candidate values for `key` (PRS entries for members, NRS for others).
  virtual std::vector<uint64_t> Lookup(HashedKey key) const = 0;
  std::vector<uint64_t> Lookup(uint64_t key) const {
    return Lookup(HashedKey(key));
  }

  /// Removes one association. Unsupported on static maplets.
  virtual bool Erase(HashedKey key, uint64_t value) = 0;
  bool Erase(uint64_t key, uint64_t value) {
    return Erase(HashedKey(key), value);
  }

  virtual size_t SpaceBits() const = 0;
  virtual std::string_view Name() const = 0;

  /// Snapshot support, mirroring Filter (DESIGN.md §8): the same framed
  /// format with Name() as the tag. Maplets without payload overrides
  /// (e.g. the static Bloomier build) report failure instead.
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

/// Measured expected positive / negative result sizes of a maplet.
struct ResultSizes {
  double prs;  // Mean Lookup size over present keys.
  double nrs;  // Mean Lookup size over absent keys.
};

ResultSizes MeasureResultSizes(const Maplet& maplet,
                               const std::vector<uint64_t>& present,
                               const std::vector<uint64_t>& absent);

}  // namespace bbf

#endif  // BBF_MAPLET_MAPLET_H_
