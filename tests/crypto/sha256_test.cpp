#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lexfor::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finish();
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactlyOneBlock) {
  // 64 bytes: exercises the padding path that adds a full extra block.
  const std::string msg(64, 'x');
  Sha256 h;
  h.update(msg);
  const auto d = h.finish();
  Sha256 h2;
  for (char c : msg) h2.update(std::string(1, c));
  const auto d2 = h2.finish();
  EXPECT_EQ(d, d2);
}

TEST(Sha256Test, StreamingEqualsOneShot) {
  const std::string msg =
      "The right of the people to be secure in their persons, houses, "
      "papers, and effects, against unreasonable searches and seizures, "
      "shall not be violated";
  Sha256 streaming;
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    streaming.update(msg.substr(i, 7));
  }
  const auto a = streaming.finish();
  const auto b = Sha256::hash(msg);
  EXPECT_EQ(a, b);
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.update("first");
  (void)h.finish();
  h.reset();
  h.update("abc");
  const auto d = h.finish();
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DifferentInputsDifferentDigests) {
  EXPECT_NE(Sha256::hash("evidence-a"), Sha256::hash("evidence-b"));
}

TEST(Sha256Test, BytesOverloadMatchesStringOverload) {
  const std::string s = "chain of custody";
  EXPECT_EQ(Sha256::hash(s), Sha256::hash(to_bytes(s)));
}

// RFC 4231 HMAC-SHA256 test vectors.
// Every two-piece update() split must give the one-shot digest: covers
// the buffered head, the whole-block fast path and the tail around the
// 55/56 and 63/64 padding edges.
TEST(Sha256Test, EverySplitPointMatchesOneShot) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 200; ++n) lengths.push_back(n);
  for (std::size_t n : {55, 56, 63, 64, 119, 120, 128, 1024}) {
    lengths.push_back(n);
  }
  Bytes msg(1024);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (std::size_t n : lengths) {
    const Bytes m(msg.begin(), msg.begin() + static_cast<std::ptrdiff_t>(n));
    const auto expected = Sha256::hash(m);
    for (std::size_t split = 0; split <= n; ++split) {
      Sha256 h;
      h.update(m.data(), split);
      h.update(m.data() + split, n - split);
      ASSERT_EQ(h.finish(), expected) << "length " << n << " split " << split;
    }
  }
}

TEST(HmacSha256Test, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto d = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  const auto d = hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  const auto d = hmac_sha256(key, msg);
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256Test, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const auto d = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256Test, KeySensitivity) {
  const Bytes m = to_bytes("custody record");
  EXPECT_NE(hmac_sha256(to_bytes("key-1"), m), hmac_sha256(to_bytes("key-2"), m));
}

}  // namespace
}  // namespace lexfor::crypto
