// Multi-buffer SHA-1/SHA-256: hash many independent messages at once.
//
// A single SHA stream has a serial dependency between blocks, so vector
// units cannot spread one stream across lanes. The batch-quote Merkle
// builder, the SLB measurement path and the verifier farm hash *sets* of
// independent messages instead, and interleave them: lane j of every vector
// register carries message j's state, and one AVX2 instruction advances 8
// compressions (SSE2: 4).
//
// For SHA-1 this pays only on hosts without the SHA extensions. Sha1 itself
// runs a SHA-NI kernel where the CPU has one (see sha1.h), and on such a
// host one stream (1.2-1.4 GB/s) beats 8 AVX2 lanes (1.1-1.2 GB/s), so
// BENCH_crypto.json's sha1_multibuf_speedup reads below 1x there. SHA-256
// has no single-stream hardware kernel here, so its lanes still win.
//
// Engine selection, in order:
//   * AVX2 8-lane kernel when the host CPU has AVX2,
//   * SSE2 4-lane kernel on any other x86-64,
//   * the scalar fallback (plain-array lanes) everywhere else, when the
//     build sets -DFLICKER_SIMD=OFF, or under ForceScalarForTesting.
//
// Every path produces digests bit-identical to Sha1::Digest / Sha256::Digest
// per message - the differential battery in tests/crypto/sha_multibuf_test.cc
// and the verify.sh --perf campaign both pin this. Messages of different
// lengths are fine (ragged tails): each lane retires independently, its
// digest snapshotted after its own final block while longer lanes continue.

#ifndef FLICKER_SRC_CRYPTO_SHA_MULTIBUF_H_
#define FLICKER_SRC_CRYPTO_SHA_MULTIBUF_H_

#include <cstddef>
#include <vector>

#include "src/common/bytes.h"

namespace flicker {

// Digests for each message, in input order. Equivalent to calling
// Sha1::Digest / Sha256::Digest per element, but lane-parallel.
std::vector<Bytes> Sha1DigestMany(const std::vector<Bytes>& messages);
std::vector<Bytes> Sha256DigestMany(const std::vector<Bytes>& messages);

// The lane width the active engine advances per compression call: 8 (AVX2)
// or 4 (SSE2, and the scalar fallback's plain-array width).
int ShaMultiBufLanes();

// Human-readable engine name for bench reports: "avx2", "sse2" or "scalar".
const char* ShaMultiBufEngine();

// Forces the scalar fallback regardless of host ISA; the differential tests
// use this to compare both paths in one process. Returns the previous value.
bool ShaMultiBufForceScalar(bool force);

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_SHA_MULTIBUF_H_
