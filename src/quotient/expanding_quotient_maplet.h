#ifndef BBF_QUOTIENT_EXPANDING_QUOTIENT_MAPLET_H_
#define BBF_QUOTIENT_EXPANDING_QUOTIENT_MAPLET_H_

#include <cstdint>
#include <vector>

#include "quotient/quotient_maplet.h"

namespace bbf {

/// An expandable maplet (§2.2 + §2.4): "as the data size grows, the maplet
/// must expand to map a greater number of keys and their storage
/// locations." Expansion uses the quotient filter's bit-sacrifice trick on
/// the fingerprints while values ride along untouched — no access to the
/// original keys, no I/O against the mapped data. The cost is one
/// fingerprint bit (2x FPR, i.e. 2x lookup noise) per doubling.
class ExpandingQuotientMaplet {
 public:
  ExpandingQuotientMaplet(int q_bits, int r_bits, int value_bits,
                          uint64_t hash_seed = 0xE9);

  /// Inserts; doubles the table first if full. Returns false only once
  /// fingerprints are exhausted.
  bool Insert(uint64_t key, uint64_t value);

  std::vector<uint64_t> Lookup(uint64_t key) const {
    return maplet_.Lookup(key);
  }
  bool Erase(uint64_t key, uint64_t value) {
    return maplet_.Erase(key, value);
  }

  size_t SpaceBits() const { return maplet_.SpaceBits(); }
  uint64_t NumEntries() const { return maplet_.NumEntries(); }
  int expansions() const { return expansions_; }
  int r_bits() const { return maplet_.r_bits(); }

 private:
  QuotientMaplet maplet_;
  int expansions_ = 0;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_EXPANDING_QUOTIENT_MAPLET_H_
