// SHA-1 (FIPS 180-1), implemented from scratch.
//
// SHA-1 is the measurement hash mandated by the TPM v1.2 specification: PCR
// extends, quotes, seal composites, and SKINIT's SLB measurement all use it,
// so this implementation sits at the bottom of the entire attestation chain.
//
// The compression function has two kernels, chosen once per process: the
// SHA extensions (sha1rnds4/sha1nexte/sha1msg1/sha1msg2) when the host CPU
// has them, and the portable scalar compress otherwise. -DFLICKER_SIMD=OFF
// compiles the SHA-NI kernel out, leaving the scalar path as the oracle the
// SIMD build's digests are diffed against. Both produce identical digests.

#ifndef FLICKER_SRC_CRYPTO_SHA1_H_
#define FLICKER_SRC_CRYPTO_SHA1_H_

#include <cstddef>
#include <cstdint>

#include "src/common/bytes.h"

namespace flicker {

class Sha1 {
 public:
  static constexpr size_t kDigestSize = 20;
  static constexpr size_t kBlockSize = 64;

  Sha1() { Reset(); }

  // Restores the initial chaining state, discarding buffered input.
  void Reset();

  // Absorbs `len` bytes.
  void Update(const void* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  // Appends padding and returns the 20-byte digest. The object is Reset()
  // automatically, ready for the next message.
  Bytes Finish();

  // One-shot convenience.
  static Bytes Digest(const Bytes& data);
  static Bytes Digest(const void* data, size_t len);

 private:
  // Compresses `n` consecutive 64-byte blocks into state_.
  void ProcessBlocks(const uint8_t* blocks, size_t n);

  uint32_t state_[5];
  uint64_t total_len_;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_;
};

// Name of the compression kernel in use, for bench reports: "sha-ni" or
// "scalar".
const char* Sha1Engine();

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_SHA1_H_
