#include "src/crypto/sha512.h"

#include <cstring>

#include "src/crypto/bigint.h"

namespace flicker {

namespace {

inline uint64_t Rotr(uint64_t x, int n) {
  return (x >> n) | (x << (64 - n));
}

constexpr int kFirstPrimes[80] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127, 131,
    137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
    313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409,
};

// floor(p^(1/k) * 2^64) for k in {2, 3}: the integer k-th root of p << (64*k),
// found by binary search over BigInt. Its low 64 bits are the FIPS "fractional
// part" constant because p < 2^9 keeps the integer part in the upper bits.
uint64_t FractionalRootBits(int p, int k) {
  BigInt target = BigInt(static_cast<uint64_t>(p)) << (64 * k);
  BigInt lo(0);
  BigInt hi = BigInt(1) << (64 * k / k + 10);  // Safe upper bound: 2^74.
  while (lo + BigInt(1) < hi) {
    BigInt mid = (lo + hi) >> 1;
    BigInt power = mid;
    for (int i = 1; i < k; ++i) {
      power = power * mid;
    }
    if (BigInt::Compare(power, target) <= 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo.ToUint64();
}

struct Sha512Tables {
  uint64_t iv[8];
  uint64_t k[80];
  Sha512Tables() {
    for (int i = 0; i < 8; ++i) {
      iv[i] = FractionalRootBits(kFirstPrimes[i], 2);
    }
    for (int i = 0; i < 80; ++i) {
      k[i] = FractionalRootBits(kFirstPrimes[i], 3);
    }
  }
};

const Sha512Tables& Tables() {
  static const Sha512Tables tables;
  return tables;
}

}  // namespace

void Sha512::Reset() {
  const Sha512Tables& t = Tables();
  for (int i = 0; i < 8; ++i) {
    state_[i] = t.iv[i];
  }
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha512::ProcessBlock(const uint8_t* block) {
  const Sha512Tables& tables = Tables();
  uint64_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = 0;
    for (int j = 0; j < 8; ++j) {
      w[i] = (w[i] << 8) | block[i * 8 + j];
    }
  }
  for (int i = 16; i < 80; ++i) {
    uint64_t s0 = Rotr(w[i - 15], 1) ^ Rotr(w[i - 15], 8) ^ (w[i - 15] >> 7);
    uint64_t s1 = Rotr(w[i - 2], 19) ^ Rotr(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint64_t a = state_[0];
  uint64_t b = state_[1];
  uint64_t c = state_[2];
  uint64_t d = state_[3];
  uint64_t e = state_[4];
  uint64_t f = state_[5];
  uint64_t g = state_[6];
  uint64_t h = state_[7];

  for (int i = 0; i < 80; ++i) {
    uint64_t s1 = Rotr(e, 14) ^ Rotr(e, 18) ^ Rotr(e, 41);
    uint64_t ch = (e & f) ^ (~e & g);
    uint64_t temp1 = h + s1 + ch + tables.k[i] + w[i];
    uint64_t s0 = Rotr(a, 28) ^ Rotr(a, 34) ^ Rotr(a, 39);
    uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint64_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha512::Update(const void* data, size_t len) {
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
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= kBlockSize) {
    ProcessBlock(p);
    p += kBlockSize;
    len -= kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Bytes Sha512::Finish() {
  uint64_t bit_len = total_len_ * 8;
  // buffer_len_ < 128 here: Update compresses every full block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 112) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  // The 128-bit length field: the high 64 bits are zero for any input we
  // can represent.
  std::memset(buffer_ + buffer_len_, 0, 120 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[120 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ProcessBlock(buffer_);

  Bytes digest(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      digest[i * 8 + j] = static_cast<uint8_t>(state_[i] >> (56 - 8 * j));
    }
  }
  Reset();  // Finish leaves the object ready for the next message.
  return digest;
}

Bytes Sha512::Digest(const void* data, size_t len) {
  Sha512 h;
  h.Update(data, len);
  return h.Finish();
}

Bytes Sha512::Digest(const Bytes& data) {
  return Digest(data.data(), data.size());
}

}  // namespace flicker
