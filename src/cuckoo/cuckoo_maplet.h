#ifndef BBF_CUCKOO_CUCKOO_MAPLET_H_
#define BBF_CUCKOO_CUCKOO_MAPLET_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "core/key.h"
#include "cuckoo/cuckoo_table.h"

namespace bbf {

/// Cuckoo-filter maplet (§2.4): each cell stores a small value next to the
/// fingerprint; kicks move (fingerprint, value) pairs together. PRS is
/// 1 + eps and NRS is eps, as for the quotient maplet. The buckets, kicks
/// and stash are the CuckooTable engine's, with its value plane on.
class CuckooMaplet {
 public:
  CuckooMaplet(uint64_t expected_keys, int fingerprint_bits, int value_bits,
               uint64_t hash_seed = 0xCA)
      : table_(expected_keys, fingerprint_bits, value_bits, hash_seed,
               {104729, 3}) {}

  /// Associates `value` with `key`; returns false if the table is full.
  bool Insert(HashedKey key, uint64_t value) {
    return table_.Insert(table_.ProbeOf(key), value);
  }
  bool Insert(uint64_t key, uint64_t value) {
    return Insert(HashedKey(key), value);
  }

  /// All values stored under `key`'s fingerprint (possibly empty).
  std::vector<uint64_t> Lookup(HashedKey key) const {
    return table_.Values(table_.ProbeOf(key));
  }
  std::vector<uint64_t> Lookup(uint64_t key) const {
    return Lookup(HashedKey(key));
  }

  bool Contains(HashedKey key) const { return !Lookup(key).empty(); }
  bool Contains(uint64_t key) const { return Contains(HashedKey(key)); }

  /// Removes one (key, value) association.
  bool Erase(HashedKey key, uint64_t value) {
    return table_.EraseValue(table_.ProbeOf(key), value);
  }
  bool Erase(uint64_t key, uint64_t value) {
    return Erase(HashedKey(key), value);
  }

  size_t SpaceBits() const { return table_.SpaceBits(); }
  uint64_t NumEntries() const { return table_.num_keys(); }

  /// Raw snapshot payload (framing is the caller's job; the Maplet
  /// adapters wrap these in checksummed frames).
  bool SavePayload(std::ostream& os) const { return table_.Save(os); }
  bool LoadPayload(std::istream& is) { return table_.Load(is); }

 private:
  CuckooTable table_;
};

}  // namespace bbf

#endif  // BBF_CUCKOO_CUCKOO_MAPLET_H_
