// Non-cryptographic hashing utilities: FNV-1a for byte strings, a 64-bit
// finalizer-style mixer, and hash combination. Used for consistent hashing,
// Merkle trees, and key scrambling. Stable across platforms and runs (never
// keyed by ASLR), because replicas must agree on hash placement.

#ifndef EVC_COMMON_HASH_H_
#define EVC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace evc {

/// 64-bit FNV-1a over arbitrary bytes.
inline uint64_t Fnv1a64(std::string_view data,
                        uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Strong 64-bit mixer (SplitMix64 finalizer). Bijective.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Order-dependent combination of two 64-bit hashes.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// CRC32 (Castagnoli polynomial, portable slicing-by-8 tables) for WAL
/// record integrity checking.
uint32_t Crc32c(std::string_view data);

}  // namespace evc

#endif  // EVC_COMMON_HASH_H_
