#ifndef BBF_CUCKOO_CUCKOO_MAPLET_H_
#define BBF_CUCKOO_CUCKOO_MAPLET_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "core/key.h"
#include "cuckoo/cuckoo_table.h"
#include "maplet/maplet.h"

namespace bbf {

/// Cuckoo-filter maplet (§2.4): each cell stores a small value next to the
/// fingerprint; kicks move (fingerprint, value) pairs together. PRS is
/// 1 + eps and NRS is eps, as for the quotient maplet. The buckets, kicks
/// and stash are the CuckooTable engine's, with its value plane on.
class CuckooMaplet final : public Maplet {
 public:
  CuckooMaplet(uint64_t expected_keys, int fingerprint_bits, int value_bits,
               uint64_t hash_seed = 0xCA)
      : table_(expected_keys, fingerprint_bits, value_bits, hash_seed,
               {104729, 3}) {}

  using Maplet::Erase;
  using Maplet::Insert;
  using Maplet::Lookup;

  /// Associates `value` with `key`; returns false if the table is full.
  bool Insert(HashedKey key, uint64_t value) override {
    return table_.Insert(table_.ProbeOf(key), value);
  }

  /// All values stored under `key`'s fingerprint (possibly empty).
  std::vector<uint64_t> Lookup(HashedKey key) const override {
    return table_.Values(table_.ProbeOf(key));
  }

  /// Removes one (key, value) association.
  bool Erase(HashedKey key, uint64_t value) override {
    return table_.EraseValue(table_.ProbeOf(key), value);
  }

  size_t SpaceBits() const override { return table_.SpaceBits(); }
  std::string_view Name() const override { return "cuckoo-maplet"; }
  uint64_t NumEntries() const { return table_.num_keys(); }

  bool SavePayload(std::ostream& os) const override { return table_.Save(os); }
  bool LoadPayload(std::istream& is) override { return table_.Load(is); }
  bool CheckInvariants() const override { return table_.CheckInvariants(); }

 private:
  CuckooTable table_;
};

}  // namespace bbf

#endif  // BBF_CUCKOO_CUCKOO_MAPLET_H_
