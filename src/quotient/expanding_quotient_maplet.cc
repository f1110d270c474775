#include "quotient/expanding_quotient_maplet.h"

namespace bbf {

ExpandingQuotientMaplet::ExpandingQuotientMaplet(int q_bits, int r_bits,
                                                 int value_bits,
                                                 uint64_t hash_seed)
    : maplet_(q_bits, r_bits, value_bits, hash_seed) {}

bool ExpandingQuotientMaplet::Insert(uint64_t key, uint64_t value) {
  if (maplet_.Insert(key, value)) return true;
  if (!maplet_.DoubleTable()) return false;
  ++expansions_;
  return maplet_.Insert(key, value);
}

}  // namespace bbf
