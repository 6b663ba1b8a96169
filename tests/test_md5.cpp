// MD5 against the RFC 1321 test suite plus incremental-update and
// block-boundary cases.
#include <gtest/gtest.h>

#include <string>

#include "common/check.hpp"
#include "hash/md5.hpp"

namespace cca::hash {
namespace {

std::string hex(std::string_view s) { return Md5::to_hex(Md5::digest(s)); }

TEST(Md5, Rfc1321TestSuite) {
  // The seven official test vectors from RFC 1321 appendix A.5.
  EXPECT_EQ(hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(hex("1234567890123456789012345678901234567890123456789012345678"
                "9012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalUpdatesMatchOneShot) {
  Md5 md5;
  md5.update("mess");
  md5.update("age ");
  md5.update("digest");
  EXPECT_EQ(Md5::to_hex(md5.finish()), "f96b697d7cb7938d525a2f31aaf161d0");
}

TEST(Md5, FinishIsIdempotent) {
  Md5 md5;
  md5.update("abc");
  const Md5::Digest first = md5.finish();
  EXPECT_EQ(first, md5.finish());
}

TEST(Md5, UpdateAfterFinishThrows) {
  Md5 md5;
  md5.finish();
  EXPECT_THROW(md5.update("x"), common::Error);
}

TEST(Md5, BlockBoundaryLengths) {
  // Lengths straddling the 55/56/64-byte padding boundaries are the
  // classic MD5 implementation bugs; verify incremental == one-shot.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string s(len, 'x');
    Md5 incremental;
    for (char ch : s) incremental.update(&ch, 1);
    EXPECT_EQ(incremental.finish(), Md5::digest(s)) << "length " << len;
  }
}

TEST(Md5, Digest64IsBigEndianPrefix) {
  // "abc" digest starts 0x900150983cd24fb0.
  EXPECT_EQ(Md5::digest64("abc"), 0x900150983cd24fb0ULL);
}

TEST(Md5, Digest64SpreadsAcrossBuckets) {
  // The hash-mod-n placement relies on rough uniformity over small n.
  const int kNodes = 10;
  const int kKeys = 20000;
  std::vector<int> hist(kNodes, 0);
  for (int i = 0; i < kKeys; ++i)
    ++hist[Md5::digest64("kw" + std::to_string(i)) % kNodes];
  for (int k = 0; k < kNodes; ++k)
    EXPECT_NEAR(hist[k], kKeys / kNodes, kKeys * 0.01) << "bucket " << k;
}

TEST(Md5, LongInputMatchesKnownDigest) {
  // 1,000,000 'a' characters — the classic extended vector:
  // 7707d6ae4e027c70eea2a935c2296f21.
  Md5 md5;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) md5.update(chunk);
  EXPECT_EQ(Md5::to_hex(md5.finish()), "7707d6ae4e027c70eea2a935c2296f21");
}

TEST(Md5, Digest64FastPathMatchesIncremental) {
  // digest64 compresses messages of up to 55 bytes in one stack block;
  // it must agree with the incremental context on every length around
  // and past that boundary, and on the keyword names the hash tail uses.
  const auto incremental64 = [](const std::string& s) {
    Md5 md5;
    for (const char ch : s) md5.update(&ch, 1);
    const Md5::Digest d = md5.finish();
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
    return v;
  };
  for (std::size_t len = 0; len <= 130; ++len) {
    std::string s;
    for (std::size_t i = 0; i < len; ++i)
      s += static_cast<char>('!' + (i * 7 + len) % 90);
    EXPECT_EQ(Md5::digest64(s), incremental64(s)) << "length " << len;
  }
  for (int id = 0; id < 20000; id += 37) {
    const std::string name = "kw" + std::to_string(id);
    EXPECT_EQ(Md5::digest64(name), incremental64(name)) << name;
  }
}

}  // namespace
}  // namespace cca::hash
