#include "common/sha1.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace webcache {
namespace {

// RFC 3174 / FIPS 180-1 test vectors.
TEST(Sha1, Rfc3174Vector1Abc) {
  EXPECT_EQ(Sha1::to_hex(Sha1::hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Rfc3174Vector2TwoBlocks) {
  EXPECT_EQ(Sha1::to_hex(Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, Rfc3174Vector3MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(Sha1::to_hex(h.digest()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, Rfc3174Vector4Repeated) {
  Sha1 h;
  for (int i = 0; i < 10; ++i) {
    h.update("0123456701234567012345670123456701234567012345670123456701234567");
  }
  EXPECT_EQ(Sha1::to_hex(h.digest()), "dea356a2cddd90c7a7ecedc5ebb563934f460452");
}

TEST(Sha1, EmptyString) {
  EXPECT_EQ(Sha1::to_hex(Sha1::hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, ExactBlockBoundary) {
  // 64 bytes: padding must spill into a second block.
  const std::string s(64, 'x');
  Sha1 a;
  a.update(s);
  Sha1 b;
  for (char c : s) b.update(&c, 1);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Sha1, PaddingBoundaryVectors) {
  // Messages whose byte i is 'a' + i % 26. At 55 bytes the pad and the
  // length fit one block; from 56 they spill into a second; 64 and 120
  // end exactly at a block or a length-field boundary. Expected digests
  // from python3's hashlib.sha1.
  const std::pair<std::size_t, const char*> vectors[] = {
      {55, "a617d006d1ca12671785098a19a87fe58443bde9"},
      {56, "4ad5bb7ae3c4024768d364b77c52128ea3cffebe"},
      {57, "e1b3b34da0f7b299090824d9aa81fff6711a79ad"},
      {63, "fc8a5ab77259625085ead3ec96515b3b8d933fad"},
      {64, "93249d4c2f8903ebf41ac358473148ae6ddd7042"},
      {65, "cf2a63cc308225cf07b498d2309a01dd0df52f67"},
      {119, "edd0f1133d0e4ca5f3e98bb7e0295f31d20d2cdb"},
      {120, "23a58eee587aa1f50d19a969ab36a3fe3e88c393"},
  };
  for (const auto& [length, hex] : vectors) {
    std::string message(length, '\0');
    for (std::size_t i = 0; i < length; ++i) message[i] = static_cast<char>('a' + i % 26);
    EXPECT_EQ(Sha1::to_hex(Sha1::hash(message)), hex) << length << " bytes";
  }
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string s = "the quick brown fox jumps over the lazy dog, repeatedly";
  for (std::size_t split = 0; split <= s.size(); split += 7) {
    Sha1 h;
    h.update(s.substr(0, split));
    h.update(s.substr(split));
    EXPECT_EQ(h.digest(), Sha1::hash(s)) << "split at " << split;
  }
}

TEST(Sha1, ResetRestoresInitialState) {
  Sha1 h;
  h.update("garbage");
  (void)h.digest();
  h.reset();
  h.update("abc");
  EXPECT_EQ(Sha1::to_hex(h.digest()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Hash128TakesLeading128Bits) {
  // SHA-1("abc") = a9993e364706816aba3e25717850c26c 9cd0d89d
  const Uint128 id = Sha1::hash128("abc");
  EXPECT_EQ(id.to_hex(), "a9993e364706816aba3e25717850c26c");
}

TEST(Sha1, DistinctUrlsGetDistinctIds) {
  const auto a = Sha1::hash128("http://example.com/a");
  const auto b = Sha1::hash128("http://example.com/b");
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace webcache
