#include "bloom/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/sizing.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {
namespace {

// Batch tile for the two-pass (prefetch, then probe) paths: big enough to
// keep a pipeline of cache misses in flight, small enough that per-key
// hashes fit in registers/L1 scratch.
constexpr size_t kBatchTile = 64;

}  // namespace

BloomFilter::BloomFilter(uint64_t expected_keys, double bits_per_key,
                         int num_hashes, uint64_t hash_seed)
    : bits_(std::max<uint64_t>(
          64, static_cast<uint64_t>(expected_keys * bits_per_key))),
      num_hashes_(num_hashes > 0 ? num_hashes
                                 : OptimalBloomHashes(bits_per_key)),
      hash_seed_(hash_seed) {}

BloomFilter BloomFilter::ForFpr(uint64_t expected_keys, double fpr,
                                uint64_t hash_seed) {
  // m/n = -ln(eps) / (ln 2)^2 = 1.44 lg(1/eps).
  return BloomFilter(expected_keys, BloomBitsFor(fpr), 0, hash_seed);
}

bool BloomFilter::Insert(HashedKey key) {
  // Kirsch–Mitzenmacher double hashing: h_i = h1 + i * h2.
  const uint64_t h1 = key.Derive(hash_seed_ * 2 + 0x71);
  const uint64_t h2 = key.Derive(hash_seed_ * 2 + 0x72) | 1;
  uint64_t h = h1;
  for (int i = 0; i < num_hashes_; ++i) {
    bits_.Set(FastRange64(h, bits_.size()));
    h += h2;
  }
  ++num_keys_;
  return true;
}

bool BloomFilter::Contains(HashedKey key) const {
  const uint64_t h1 = key.Derive(hash_seed_ * 2 + 0x71);
  const uint64_t h2 = key.Derive(hash_seed_ * 2 + 0x72) | 1;
  uint64_t h = h1;
  for (int i = 0; i < num_hashes_; ++i) {
    if (!bits_.Get(FastRange64(h, bits_.size()))) return false;
    h += h2;
  }
  return true;
}

void BloomFilter::ContainsMany(std::span<const HashedKey> keys,
                               uint8_t* out) const {
  const uint64_t m = bits_.size();
  // Staged pipeline. A classic Bloom probe touches k scattered cache
  // lines, but a negative key is rejected by the first clear bit — on
  // average after ~1/(1-fpr^(1/k)) ≈ 2 probes. Prefetching all k lines up
  // front would cost negatives k-2 extra line fetches that the scalar
  // early-exit loop never pays, so instead: stage 1 prefetches and probes
  // only the first two positions, and only the survivors (true positives
  // plus a sliver of near-misses) fetch and probe the remaining k-2 —
  // same memory traffic as scalar, with every fetch pipelined.
  const int k0 = std::min(num_hashes_, 2);
  uint64_t h1[kBatchTile];
  uint64_t h2[kBatchTile];
  size_t survivor[kBatchTile];
  for (size_t base = 0; base < keys.size(); base += kBatchTile) {
    const size_t n = std::min(kBatchTile, keys.size() - base);
    // Stage 1a: hash the tile, request the first k0 target words.
    for (size_t j = 0; j < n; ++j) {
      h1[j] = keys[base + j].Derive(hash_seed_ * 2 + 0x71);
      h2[j] = keys[base + j].Derive(hash_seed_ * 2 + 0x72) | 1;
      uint64_t h = h1[j];
      for (int i = 0; i < k0; ++i) {
        bits_.PrefetchBit(FastRange64(h, m));
        h += h2[j];
      }
    }
    // Stage 1b: probe them (branchless — both lines are in flight) and
    // collect survivors.
    size_t num_survivors = 0;
    for (size_t j = 0; j < n; ++j) {
      uint64_t h = h1[j];
      uint8_t hit = 1;
      for (int i = 0; i < k0; ++i) {
        hit &= static_cast<uint8_t>(bits_.Get(FastRange64(h, m)));
        h += h2[j];
      }
      out[base + j] = hit;
      survivor[num_survivors] = j;
      num_survivors += hit;
    }
    if (num_hashes_ <= k0) continue;
    // Stage 2a: survivors request their remaining target words.
    for (size_t s = 0; s < num_survivors; ++s) {
      const size_t j = survivor[s];
      uint64_t h = h1[j] + static_cast<uint64_t>(k0) * h2[j];
      for (int i = k0; i < num_hashes_; ++i) {
        bits_.PrefetchBit(FastRange64(h, m));
        h += h2[j];
      }
    }
    // Stage 2b: finish the conjunction.
    for (size_t s = 0; s < num_survivors; ++s) {
      const size_t j = survivor[s];
      uint64_t h = h1[j] + static_cast<uint64_t>(k0) * h2[j];
      uint8_t hit = 1;
      for (int i = k0; i < num_hashes_; ++i) {
        hit &= static_cast<uint8_t>(bits_.Get(FastRange64(h, m)));
        h += h2[j];
      }
      out[base + j] = hit;
    }
  }
}

size_t BloomFilter::InsertMany(std::span<const HashedKey> keys) {
  const uint64_t m = bits_.size();
  uint64_t h1[kBatchTile];
  uint64_t h2[kBatchTile];
  for (size_t base = 0; base < keys.size(); base += kBatchTile) {
    const size_t n = std::min(kBatchTile, keys.size() - base);
    for (size_t j = 0; j < n; ++j) {
      h1[j] = keys[base + j].Derive(hash_seed_ * 2 + 0x71);
      h2[j] = keys[base + j].Derive(hash_seed_ * 2 + 0x72) | 1;
      uint64_t h = h1[j];
      for (int i = 0; i < num_hashes_; ++i) {
        bits_.PrefetchBit(FastRange64(h, m), /*for_write=*/true);
        h += h2[j];
      }
    }
    for (size_t j = 0; j < n; ++j) {
      uint64_t h = h1[j];
      for (int i = 0; i < num_hashes_; ++i) {
        bits_.Set(FastRange64(h, m));
        h += h2[j];
      }
    }
  }
  num_keys_ += keys.size();
  return keys.size();
}

bool BloomFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, num_hashes_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_keys_);
  bits_.Save(os);
  return os.good();
}

bool BloomFilter::LoadPayload(std::istream& is) {
  BloomFilter fresh(0, 0.0, 1);
  // An empty bit array would make FastRange64 index out of bounds.
  if (!ReadI32(is, &fresh.num_hashes_) || fresh.num_hashes_ < 1 ||
      fresh.num_hashes_ > 64 || !ReadU64(is, &fresh.hash_seed_) ||
      !ReadU64(is, &fresh.num_keys_) || !fresh.bits_.Load(is) ||
      fresh.bits_.size() == 0) {
    return false;
  }
  return CommitLoaded(*this, std::move(fresh));
}

BlockedBloomFilter::BlockedBloomFilter(uint64_t expected_keys,
                                       double bits_per_key, int num_hashes)
    : num_hashes_(std::clamp(num_hashes > 0 ? num_hashes
                                            : OptimalBloomHashes(bits_per_key),
                             1, 64)),
      hash_words_(simd::BloomHashWordsFor(num_hashes_)) {
  const uint64_t total_bits = std::max<uint64_t>(
      kBlockBits, static_cast<uint64_t>(expected_keys * bits_per_key));
  num_blocks_ = (total_bits + kBlockBits - 1) / kBlockBits;
  bits_.Resize(num_blocks_ * kBlockBits);
}

void BlockedBloomFilter::DeriveProbeWords(HashedKey key, uint64_t* hw) const {
  // Probe i consumes 9 bits of hw[i/6] at shift 9*(i%6); hash word w is
  // Derive(0x74 + 6w). Word 0 matches the historic Derive(0x74) and word
  // w >= 1 the historic refresh Derive(0x75 + (6w - 1)), so the probe
  // sequence — and therefore the bit layout and snapshot format — is
  // unchanged from the pre-kernel rolling-refresh loop.
  for (int w = 0; w < hash_words_; ++w) {
    hw[w] = key.Derive(0x74 + 6 * static_cast<uint64_t>(w));
  }
}

bool BlockedBloomFilter::Insert(HashedKey key) {
  const uint64_t block = FastRange64(key.Derive(0x73), num_blocks_);
  uint64_t hw[simd::kMaxBloomHashWords];
  DeriveProbeWords(key, hw);
  simd::ActiveBloomKernel().set_block(
      bits_.MutableWords() + block * kWordsPerBlock, hw, num_hashes_);
  ++num_keys_;
  return true;
}

bool BlockedBloomFilter::Contains(HashedKey key) const {
  const uint64_t block = FastRange64(key.Derive(0x73), num_blocks_);
  uint64_t hw[simd::kMaxBloomHashWords];
  DeriveProbeWords(key, hw);
  return simd::ActiveBloomKernel().test_block(
      bits_.Words() + block * kWordsPerBlock, hw, num_hashes_);
}

void BlockedBloomFilter::ContainsMany(std::span<const HashedKey> keys,
                                      uint8_t* out) const {
  const simd::BlockedBloomKernel& kernel = simd::ActiveBloomKernel();
  uint64_t block[kBatchTile];
  uint64_t hw[kBatchTile * simd::kMaxBloomHashWords];
  for (size_t base = 0; base < keys.size(); base += kBatchTile) {
    const size_t n = std::min(kBatchTile, keys.size() - base);
    // Pass 1: pick each key's block and issue ONE prefetch — the backing
    // store is 64-byte aligned, so a 512-bit block is exactly one line.
    // Hash-word derivation happens here too, inside the miss window.
    for (size_t j = 0; j < n; ++j) {
      block[j] = FastRange64(keys[base + j].Derive(0x73), num_blocks_);
      bits_.PrefetchWord(block[j] * kWordsPerBlock);
      DeriveProbeWords(keys[base + j], hw + j * hash_words_);
    }
    // Pass 2: the kernel tests all probes of every key against its
    // now-resident block (branchless conjunction; early exit would only
    // buy mispredicts once the line is in flight).
    kernel.test_tile(bits_.Words(), block, hw, hash_words_, num_hashes_, n,
                     out + base);
  }
}

bool BlockedBloomFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, num_hashes_);
  WriteU64(os, num_blocks_);
  WriteU64(os, num_keys_);
  bits_.Save(os);
  return os.good();
}

bool BlockedBloomFilter::LoadPayload(std::istream& is) {
  BlockedBloomFilter fresh(0, 0.0, 1);
  if (!ReadI32(is, &fresh.num_hashes_) || fresh.num_hashes_ < 1 ||
      fresh.num_hashes_ > 64 ||
      !ReadU64Capped(is, &fresh.num_blocks_,
                     kMaxSnapshotElements / kBlockBits) ||
      fresh.num_blocks_ == 0 || !ReadU64(is, &fresh.num_keys_) ||
      !fresh.bits_.Load(is) ||
      fresh.bits_.size() != fresh.num_blocks_ * kBlockBits) {
    return false;
  }
  fresh.hash_words_ = simd::BloomHashWordsFor(fresh.num_hashes_);
  return CommitLoaded(*this, std::move(fresh));
}

size_t BlockedBloomFilter::InsertMany(std::span<const HashedKey> keys) {
  const simd::BlockedBloomKernel& kernel = simd::ActiveBloomKernel();
  uint64_t block[kBatchTile];
  uint64_t hw[kBatchTile * simd::kMaxBloomHashWords];
  for (size_t base = 0; base < keys.size(); base += kBatchTile) {
    const size_t n = std::min(kBatchTile, keys.size() - base);
    for (size_t j = 0; j < n; ++j) {
      block[j] = FastRange64(keys[base + j].Derive(0x73), num_blocks_);
      bits_.PrefetchWord(block[j] * kWordsPerBlock, /*for_write=*/true);
      DeriveProbeWords(keys[base + j], hw + j * hash_words_);
    }
    kernel.set_tile(bits_.MutableWords(), block, hw, hash_words_, num_hashes_,
                    n);
  }
  num_keys_ += keys.size();
  return keys.size();
}

}  // namespace bbf
