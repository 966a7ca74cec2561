// FIPS / RFC test vectors plus incremental-update properties for the four
// hash functions, and a differential battery pinning the single-stream SHA-1
// kernel to the multi-buffer engine's scalar lanes.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/md5.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha512.h"
#include "src/crypto/sha_multibuf.h"

namespace flicker {
namespace {

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(ToHex(Sha1::Digest(BytesOf(""))), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(ToHex(Sha1::Digest(BytesOf("abc"))), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(ToHex(Sha1::Digest(BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionA) {
  Sha1 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(ToHex(h.Finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Bytes msg = BytesOf("The quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha1 h;
    h.Update(msg.data(), split);
    h.Update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(h.Finish(), Sha1::Digest(msg)) << "split at " << split;
  }
}

TEST(Sha1Test, ResetRestoresInitialState) {
  Sha1 h;
  h.Update(BytesOf("garbage"));
  h.Reset();
  h.Update(BytesOf("abc"));
  EXPECT_EQ(ToHex(h.Finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

// Boundary lengths around the 64-byte block and 56-byte padding threshold.
TEST(Sha1Test, BlockBoundaryLengths) {
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    Bytes msg(len, 0x5a);
    Sha1 incremental;
    for (size_t i = 0; i < len; ++i) {
      incremental.Update(msg.data() + i, 1);
    }
    EXPECT_EQ(incremental.Finish(), Sha1::Digest(msg)) << "len " << len;
  }
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(ToHex(Sha256::Digest(BytesOf(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(ToHex(Sha256::Digest(BytesOf("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      ToHex(Sha256::Digest(BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  Bytes chunk(10000, 'a');
  for (int i = 0; i < 100; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(ToHex(h.Finish()), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes msg(200, 0);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  Sha256 h;
  h.Update(msg.data(), 13);
  h.Update(msg.data() + 13, 100);
  h.Update(msg.data() + 113, msg.size() - 113);
  EXPECT_EQ(h.Finish(), Sha256::Digest(msg));
}

TEST(Sha512Test, EmptyString) {
  EXPECT_EQ(ToHex(Sha512::Digest(BytesOf(""))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  EXPECT_EQ(ToHex(Sha512::Digest(BytesOf("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, MillionA) {
  Sha512 h;
  Bytes chunk(100000, 'a');
  for (int i = 0; i < 10; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(ToHex(h.Finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512Test, IncrementalAcrossBlockBoundary) {
  Bytes msg(300, 0x7e);
  Sha512 h;
  h.Update(msg.data(), 127);
  h.Update(msg.data() + 127, 2);
  h.Update(msg.data() + 129, msg.size() - 129);
  EXPECT_EQ(h.Finish(), Sha512::Digest(msg));
}

TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(ToHex(Md5::Digest(BytesOf(""))), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(ToHex(Md5::Digest(BytesOf("a"))), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(ToHex(Md5::Digest(BytesOf("abc"))), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(ToHex(Md5::Digest(BytesOf("message digest"))), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(ToHex(Md5::Digest(BytesOf("abcdefghijklmnopqrstuvwxyz"))),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(ToHex(Md5::Digest(
                BytesOf("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"))),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(ToHex(Md5::Digest(BytesOf(
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890"))),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  Bytes msg(150, 0x11);
  Md5 h;
  h.Update(msg.data(), 63);
  h.Update(msg.data() + 63, 2);
  h.Update(msg.data() + 65, msg.size() - 65);
  EXPECT_EQ(h.Finish(), Md5::Digest(msg));
}

// Sha1 (whichever kernel the host selected) against the forced-scalar
// multi-buffer lanes, which share no code with Sha1::ProcessBlocks: every
// length 0..1100, from source offsets 0..7 (unaligned loads), each message
// fed as two Updates split at 0, at len/2, and at 61 - a split that leaves
// the buffer part-full so the second Update completes it across the block
// boundary before handing over whole blocks.
TEST(Sha1Test, MatchesIndependentScalarLanes) {
  constexpr size_t kMaxLen = 1100;
  constexpr size_t kOffsets = 8;
  Bytes source = Drbg(uint64_t{0x5a1}).Generate(kMaxLen + kOffsets);
  std::vector<Bytes> messages;
  for (size_t len = 0; len <= kMaxLen; ++len) {
    for (size_t off = 0; off < kOffsets; ++off) {
      messages.emplace_back(source.begin() + static_cast<long>(off),
                            source.begin() + static_cast<long>(off + len));
    }
  }
  bool previous = ShaMultiBufForceScalar(true);
  std::vector<Bytes> expected = Sha1DigestMany(messages);
  ShaMultiBufForceScalar(previous);

  size_t index = 0;
  for (size_t len = 0; len <= kMaxLen; ++len) {
    for (size_t off = 0; off < kOffsets; ++off, ++index) {
      const uint8_t* p = source.data() + off;
      for (size_t split : {size_t{0}, len / 2, len < 61 ? len : size_t{61}}) {
        Sha1 h;
        h.Update(p, split);
        h.Update(p + split, len - split);
        ASSERT_EQ(h.Finish(), expected[index])
            << "len " << len << " offset " << off << " split " << split;
      }
    }
  }
}

// The SHA-NI kernel runs exactly when it is compiled in and the host has it.
TEST(Sha1Test, EngineMatchesHostAndBuild) {
  std::string engine = Sha1Engine();
#if defined(__x86_64__) && !defined(FLICKER_SIMD_DISABLED)
  EXPECT_EQ(engine, __builtin_cpu_supports("sha") ? "sha-ni" : "scalar");
#else
  EXPECT_EQ(engine, "scalar");
#endif
}

// Lengths that put the 0x80 pad byte and the length field on either side of
// a block boundary, so Finish() compresses one or two padding blocks.
// Expected digests are of `len` bytes of 'a'.
TEST(HashTest, PaddingBoundaryVectors) {
  struct Vector {
    size_t len;
    const char* hex;
  };
  for (const Vector& v : std::vector<Vector>{
           {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
           {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
           {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
           {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
           {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"},
           {120, "f34c1488385346a55709ba056ddd08280dd4c6d6"}}) {
    EXPECT_EQ(ToHex(Sha1::Digest(Bytes(v.len, 'a'))), v.hex) << "sha1 len " << v.len;
  }
  for (const Vector& v : std::vector<Vector>{
           {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
           {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
           {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
           {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
           {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
           {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"}}) {
    EXPECT_EQ(ToHex(Sha256::Digest(Bytes(v.len, 'a'))), v.hex) << "sha256 len " << v.len;
  }
  for (const Vector& v : std::vector<Vector>{
           {55, "ef1772b6dff9a122358552954ad0df65"},
           {56, "3b0c8ac703f828b04c6c197006d17218"},
           {63, "b06521f39153d618550606be297466d5"},
           {64, "014842d480b571495a4a0363793f7367"},
           {119, "8a7bd0732ed6a28ce75f6dabc90e1613"},
           {120, "5f61c0ccad4cac44c75ff505e1f1e537"}}) {
    EXPECT_EQ(ToHex(Md5::Digest(Bytes(v.len, 'a'))), v.hex) << "md5 len " << v.len;
  }
  for (const Vector& v : std::vector<Vector>{
           {111, "fa9121c7b32b9e01733d034cfc78cbf67f926c7ed83e82200ef86818196921760b4beff48404df811"
                 "b953828274461673c68d04e297b0eb7b2b4d60fc6b566a2"},
           {112, "c01d080efd492776a1c43bd23dd99d0a2e626d481e16782e75d54c2503b5dc32bd05f0f1ba33e568b"
                 "88fd2d970929b719ecbb152f58f130a407c8830604b70ca"},
           {119, "130396a75cb483f2eee8c56d8a668bb3d2641f5243212c0bee2bd33da096ad9eb8179fe18f9eaacf7"
                 "6e09fae9de4c3f14ba13341e345be05bf76c182cc3468cb"},
           {127, "828613968b501dc00a97e08c73b118aa8876c26b8aac93df128502ab360f91bab50a51e088769a5c1"
                 "eff4782ace147dce3642554199876374291f5d921629502"},
           {128, "b73d1929aa615934e61a871596b3f3b33359f42b8175602e89f7e06e5f658a243667807ed300314b9"
                 "5cacdd579f3e33abdfbe351909519a846d465c59582f321"},
           {239, "52c853cb8d907f3d4d6b889beb027985d7c273486d75f8baf26f80d24e90c74c6c3de3e22131582380"
                 "a7d14d43f2941a31385439cd6ddc469f628015e50bf286"},
           {240, "4c296d90c61052a62ffb1dd196f1b7b09373b1f93e71836baebf89690546b7595684dbe9467a8e484"
                 "fa0d1094272b4344a7c24f5fee8daedeb0bf549c985ab5f"}}) {
    EXPECT_EQ(ToHex(Sha512::Digest(Bytes(v.len, 'a'))), v.hex) << "sha512 len " << v.len;
  }
}

// Distinct inputs must give distinct digests (a smoke test that no internal
// state is shared between instances).
TEST(HashTest, InstancesAreIndependent) {
  Sha1 a;
  Sha1 b;
  a.Update(BytesOf("first"));
  b.Update(BytesOf("second"));
  Bytes da = a.Finish();
  Bytes db = b.Finish();
  EXPECT_NE(da, db);
  EXPECT_EQ(da, Sha1::Digest(BytesOf("first")));
  EXPECT_EQ(db, Sha1::Digest(BytesOf("second")));
}

// Finish() leaves the object reset: hashing a second message on the same
// instance must equal a fresh one-shot digest, for every hash class.
TEST(HashTest, FinishAutoResetsForReuse) {
  Sha1 sha1;
  sha1.Update(BytesOf("first message"));
  EXPECT_EQ(sha1.Finish(), Sha1::Digest(BytesOf("first message")));
  sha1.Update(BytesOf("second message"));
  EXPECT_EQ(sha1.Finish(), Sha1::Digest(BytesOf("second message")));

  Sha256 sha256;
  sha256.Update(BytesOf("first"));
  EXPECT_EQ(sha256.Finish(), Sha256::Digest(BytesOf("first")));
  sha256.Update(BytesOf("second"));
  EXPECT_EQ(sha256.Finish(), Sha256::Digest(BytesOf("second")));

  Sha512 sha512;
  sha512.Update(BytesOf("first"));
  EXPECT_EQ(sha512.Finish(), Sha512::Digest(BytesOf("first")));
  sha512.Update(BytesOf("second"));
  EXPECT_EQ(sha512.Finish(), Sha512::Digest(BytesOf("second")));

  Md5 md5;
  md5.Update(BytesOf("first"));
  EXPECT_EQ(md5.Finish(), Md5::Digest(BytesOf("first")));
  md5.Update(BytesOf("second"));
  EXPECT_EQ(md5.Finish(), Md5::Digest(BytesOf("second")));

  // An empty follow-up (Finish with no Update) is the empty-string digest.
  Sha1 empty;
  empty.Update(BytesOf("spent"));
  empty.Finish();
  EXPECT_EQ(ToHex(empty.Finish()), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(HashTest, DigestSizesMatchConstants) {
  EXPECT_EQ(Sha1::Digest(BytesOf("x")).size(), Sha1::kDigestSize);
  EXPECT_EQ(Sha256::Digest(BytesOf("x")).size(), Sha256::kDigestSize);
  EXPECT_EQ(Sha512::Digest(BytesOf("x")).size(), Sha512::kDigestSize);
  EXPECT_EQ(Md5::Digest(BytesOf("x")).size(), Md5::kDigestSize);
}

}  // namespace
}  // namespace flicker
