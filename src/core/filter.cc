#include "core/filter.h"

#include <algorithm>
#include <array>

#include "util/serialize.h"

namespace bbf {

namespace {

// Tile size for the uint64 -> HashedKey boundary conversion. Batches can
// be tens of millions of keys; a fixed stack tile keeps the wrappers
// allocation-free while still amortizing the virtual batch dispatch.
constexpr size_t kHashTile = 4096;

}  // namespace

void Filter::ContainsMany(std::span<const uint64_t> keys,
                          uint8_t* out) const {
  std::array<HashedKey, kHashTile> tile;
  for (size_t base = 0; base < keys.size(); base += kHashTile) {
    const size_t n = std::min(kHashTile, keys.size() - base);
    for (size_t i = 0; i < n; ++i) tile[i] = HashedKey(keys[base + i]);
    ContainsMany(std::span<const HashedKey>(tile.data(), n), out + base);
  }
}

size_t Filter::InsertMany(std::span<const uint64_t> keys) {
  std::array<HashedKey, kHashTile> tile;
  size_t inserted = 0;
  for (size_t base = 0; base < keys.size(); base += kHashTile) {
    const size_t n = std::min(kHashTile, keys.size() - base);
    for (size_t i = 0; i < n; ++i) tile[i] = HashedKey(keys[base + i]);
    inserted += InsertMany(std::span<const HashedKey>(tile.data(), n));
  }
  return inserted;
}

void Filter::ContainsMany(std::span<const HashedKey> keys,
                          uint8_t* out) const {
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = Contains(keys[i]) ? 1 : 0;
  }
}

size_t Filter::InsertMany(std::span<const HashedKey> keys) {
  size_t inserted = 0;
  for (HashedKey key : keys) inserted += Insert(key);
  return inserted;
}

bool Filter::Erase(HashedKey /*key*/) { return false; }

void Filter::EraseMany(std::span<const HashedKey> keys, uint8_t* out) {
  for (size_t i = 0; i < keys.size(); ++i) out[i] = Erase(keys[i]) ? 1 : 0;
}

double Filter::LoadFactor() const { return 0.0; }

uint64_t Filter::Count(HashedKey key) const { return Contains(key) ? 1 : 0; }

bool Filter::Save(std::ostream& os) const {
  return SaveFramed(os, Name(),
                    [this](std::ostream& ps) { return SavePayload(ps); });
}

bool Filter::Load(std::istream& is) {
  return LoadFramed(is, Name(),
                    [this](std::istream& ps) { return LoadPayload(ps); });
}

bool Filter::SavePayload(std::ostream& /*os*/) const { return false; }

bool Filter::LoadPayload(std::istream& /*is*/) { return false; }

}  // namespace bbf
