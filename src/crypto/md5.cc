#include "src/crypto/md5.h"

#include <cmath>
#include <cstring>

namespace flicker {

namespace {

inline uint32_t Rotl(uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

// T[i] = floor(2^32 * |sin(i + 1)|), the RFC 1321 defining formula. Double
// precision carries 53 mantissa bits, comfortably exact for 32 significant
// bits of a value in [0, 1).
struct Md5Tables {
  uint32_t t[64];
  Md5Tables() {
    for (int i = 0; i < 64; ++i) {
      t[i] = static_cast<uint32_t>(std::floor(std::fabs(std::sin(i + 1.0)) * 4294967296.0));
    }
  }
};

const Md5Tables& Tables() {
  static const Md5Tables tables;
  return tables;
}

constexpr int kShifts[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
};

}  // namespace

void Md5::Reset() {
  state_[0] = 0x67452301;
  state_[1] = 0xefcdab89;
  state_[2] = 0x98badcfe;
  state_[3] = 0x10325476;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Md5::ProcessBlock(const uint8_t* block) {
  const Md5Tables& tables = Tables();
  uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<uint32_t>(block[i * 4]) | (static_cast<uint32_t>(block[i * 4 + 1]) << 8) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 3]) << 24);
  }

  uint32_t a = state_[0];
  uint32_t b = state_[1];
  uint32_t c = state_[2];
  uint32_t d = state_[3];

  for (int i = 0; i < 64; ++i) {
    uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    uint32_t tmp = d;
    d = c;
    c = b;
    b = b + Rotl(a + f + tables.t[i] + m[g], kShifts[i]);
    a = tmp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::Update(const void* data, size_t len) {
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

Bytes Md5::Finish() {
  uint64_t bit_len = total_len_ * 8;
  // buffer_len_ < 64 here: Update compresses every full block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  // MD5 length is little-endian, unlike the SHA family.
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  ProcessBlock(buffer_);

  Bytes digest(kDigestSize);
  for (int i = 0; i < 4; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i]);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i] >> 24);
  }
  Reset();  // Finish leaves the object ready for the next message.
  return digest;
}

Bytes Md5::Digest(const void* data, size_t len) {
  Md5 h;
  h.Update(data, len);
  return h.Finish();
}

Bytes Md5::Digest(const Bytes& data) {
  return Digest(data.data(), data.size());
}

}  // namespace flicker
