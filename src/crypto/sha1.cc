#include "src/crypto/sha1.h"

#include <cstring>
#include <utility>

// The SHA-NI kernel is compiled in on x86-64 unless the build sets
// -DFLICKER_SIMD=OFF, which leaves the scalar compress as the only path (and
// the differential oracle verify.sh --perf diffs against).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(FLICKER_SIMD_DISABLED)
#define FLICKER_SHA1_NI 1
#include <immintrin.h>
#endif

namespace flicker {

namespace {

inline uint32_t Rotl(uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

void Sha1BlocksScalar(uint32_t state[5], const uint8_t* p, size_t n) {
  uint32_t h0 = state[0];
  uint32_t h1 = state[1];
  uint32_t h2 = state[2];
  uint32_t h3 = state[3];
  uint32_t h4 = state[4];
  for (; n > 0; --n, p += Sha1::kBlockSize) {
    uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(p[i * 4]) << 24) |
             (static_cast<uint32_t>(p[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(p[i * 4 + 2]) << 8) | static_cast<uint32_t>(p[i * 4 + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = Rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    uint32_t a = h0;
    uint32_t b = h1;
    uint32_t c = h2;
    uint32_t d = h3;
    uint32_t e = h4;
    for (int i = 0; i < 80; ++i) {
      uint32_t f;
      uint32_t k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5a827999;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ed9eba1;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8f1bbcdc;
      } else {
        f = b ^ c ^ d;
        k = 0xca62c1d6;
      }
      uint32_t tmp = Rotl(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = Rotl(b, 30);
      b = a;
      a = tmp;
    }
    h0 += a;
    h1 += b;
    h2 += c;
    h3 += d;
    h4 += e;
  }
  state[0] = h0;
  state[1] = h1;
  state[2] = h2;
  state[3] = h3;
  state[4] = h4;
}

#ifdef FLICKER_SHA1_NI

// Four SHA-1 rounds (group G of 20) with the SHA extensions, after Intel's
// reference sequence. m[G % 4] holds W[4G..4G+3]; in the same step the
// schedule for later groups advances: sha1msg1 starts group G + 3's words,
// the xor folds in W[t-8] for group G + 2, and sha1msg2 finishes group
// G + 1's. e[] alternates between the E input of this group and the saved
// ABCD that sha1nexte turns into the next group's E.
template <int G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void ShaNiRounds(__m128i& abcd,
                                                                             __m128i (&e)[2],
                                                                             __m128i (&m)[4]) {
  __m128i& cur = e[G % 2];
  if constexpr (G == 0) {
    cur = _mm_add_epi32(cur, m[0]);
  } else {
    cur = _mm_sha1nexte_epu32(cur, m[G % 4]);
  }
  e[(G + 1) % 2] = abcd;
  if constexpr (G >= 3 && G <= 18) {
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], m[G % 4]);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, cur, G / 5);
  if constexpr (G >= 1 && G <= 16) {
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], m[G % 4]);
  }
  if constexpr (G >= 2 && G <= 17) {
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], m[G % 4]);
  }
}

template <int... G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void ShaNiAllRounds(
    __m128i& abcd, __m128i (&e)[2], __m128i (&m)[4], std::integer_sequence<int, G...>) {
  (ShaNiRounds<G>(abcd, e, m), ...);
}

// The whole run of blocks stays in registers: ABCD in one xmm (word-reversed,
// as sha1rnds4 wants it), E in the top lane of another.
__attribute__((target("sha,sse4.1"))) void Sha1BlocksShaNi(uint32_t state[5], const uint8_t* p,
                                                           size_t n) {
  const __m128i byte_swap = _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1b);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; n > 0; --n, p += Sha1::kBlockSize) {
    const __m128i abcd_save = abcd;
    const __m128i e0_save = e0;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * i)),
                              byte_swap);
    }
    __m128i e[2] = {e0, e0};
    ShaNiAllRounds(abcd, e, m, std::make_integer_sequence<int, 20>());
    e0 = _mm_sha1nexte_epu32(e[0], e0_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1b));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}

#endif  // FLICKER_SHA1_NI

using BlocksFn = void (*)(uint32_t*, const uint8_t*, size_t);

struct Kernel {
  const char* name;
  BlocksFn blocks;
};

// Chosen once per process. The first hash may run from a static
// initializer, before libgcc has filled in the CPU model, hence the init.
const Kernel& HostKernel() {
  static const Kernel kernel = [] {
#ifdef FLICKER_SHA1_NI
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha")) {
      return Kernel{"sha-ni", &Sha1BlocksShaNi};
    }
#endif
    return Kernel{"scalar", &Sha1BlocksScalar};
  }();
  return kernel;
}

}  // namespace

const char* Sha1Engine() { return HostKernel().name; }

void Sha1::Reset() {
  state_[0] = 0x67452301;
  state_[1] = 0xefcdab89;
  state_[2] = 0x98badcfe;
  state_[3] = 0x10325476;
  state_[4] = 0xc3d2e1f0;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::ProcessBlocks(const uint8_t* blocks, size_t n) {
  HostKernel().blocks(state_, blocks, n);
}

void Sha1::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = kBlockSize - buffer_len_;
    if (take > len) {
      take = len;
    }
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      ProcessBlocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (len >= kBlockSize) {
    size_t n = len / kBlockSize;
    ProcessBlocks(p, n);
    p += n * kBlockSize;
    len -= n * kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Bytes Sha1::Finish() {
  uint64_t bit_len = total_len_ * 8;
  // buffer_len_ < 64 here: Update compresses every full block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    ProcessBlocks(buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ProcessBlocks(buffer_, 1);

  Bytes digest(kDigestSize);
  for (int i = 0; i < 5; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  Reset();  // Finish leaves the object ready for the next message.
  return digest;
}

Bytes Sha1::Digest(const void* data, size_t len) {
  Sha1 h;
  h.Update(data, len);
  return h.Finish();
}

Bytes Sha1::Digest(const Bytes& data) {
  return Digest(data.data(), data.size());
}

}  // namespace flicker
