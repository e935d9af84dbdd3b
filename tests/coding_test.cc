#include "storage/coding.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rtree/node.h"

namespace segidx::storage {
namespace {

TEST(CodingTest, U16RoundTrip) {
  uint8_t buf[2];
  for (uint32_t v : {0u, 1u, 255u, 256u, 65535u}) {
    EncodeU16(buf, static_cast<uint16_t>(v));
    EXPECT_EQ(DecodeU16(buf), v);
  }
}

TEST(CodingTest, U32RoundTrip) {
  uint8_t buf[4];
  for (uint32_t v : {0u, 1u, 0xffu, 0xff00ff00u, 0xffffffffu}) {
    EncodeU32(buf, v);
    EXPECT_EQ(DecodeU32(buf), v);
  }
}

TEST(CodingTest, U64RoundTrip) {
  uint8_t buf[8];
  for (uint64_t v :
       {0ULL, 1ULL, 0xdeadbeefULL, 0x0123456789abcdefULL, ~0ULL}) {
    EncodeU64(buf, v);
    EXPECT_EQ(DecodeU64(buf), v);
  }
}

TEST(CodingTest, EncodingIsLittleEndian) {
  uint8_t buf[4];
  EncodeU32(buf, 0x01020304u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[1], 0x03);
  EXPECT_EQ(buf[2], 0x02);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(CodingTest, DoubleRoundTrip) {
  uint8_t buf[8];
  for (double v : {0.0, -0.0, 1.5, -123456.789, 1e300,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::denorm_min()}) {
    EncodeDouble(buf, v);
    EXPECT_EQ(DecodeDouble(buf), v);
  }
}

TEST(CodingTest, NanRoundTripsBitExact) {
  uint8_t buf[8];
  EncodeDouble(buf, std::numeric_limits<double>::quiet_NaN());
  const double back = DecodeDouble(buf);
  EXPECT_NE(back, back);  // Still NaN.
}

// Bit-at-a-time CRC32C: the definition, sharing no code with Crc32c.
uint32_t ReferenceCrc32c(const uint8_t* data, size_t n, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
  }
  return ~crc;
}

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  const std::string digits = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(digits.data()),
                   digits.size()),
            0xE3069283u);
  std::vector<uint8_t> buf(32, 0x00);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x8A9136AAu);
  std::fill(buf.begin(), buf.end(), 0xFF);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x62A8AB43u);
  std::iota(buf.begin(), buf.end(), 0);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x46DD794Eu);
  std::reverse(buf.begin(), buf.end());
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x113FDB5Cu);
}

TEST(Crc32cTest, LongZeroRunsMatchReference) {
  // Lengths well past the zero-run threshold, including a length with
  // many set bits; the empty input and a lone zero byte for the edges.
  for (size_t n : {0u, 1u, 255u, 256u, 4096u, 65536u, 65535u, 100001u}) {
    const std::vector<uint8_t> zeros(n, 0);
    EXPECT_EQ(Crc32c(zeros.data(), n), ReferenceCrc32c(zeros.data(), n))
        << n;
    EXPECT_EQ(Crc32c(zeros.data(), n, 0xdeadbeef),
              ReferenceCrc32c(zeros.data(), n, 0xdeadbeef))
        << n;
  }
}

TEST(Crc32cTest, RandomZeroRunsMatchReference) {
  // Live bytes around zero runs of 0..1 024 bytes — straddling the 128-byte
  // chunk and 256-byte fold thresholds — at unaligned starts, with each
  // result seeding the next call as the node checksum chains two ranges.
  std::mt19937 rng(20260101);
  std::vector<uint8_t> buf(4096 + 16);
  uint32_t chained = 0;
  uint32_t chained_ref = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t start = rng() % 16;
    const size_t lead = rng() % 300;
    const size_t run = rng() % 1025;
    const size_t trail = rng() % 300;
    const size_t n = lead + run + trail;
    uint8_t* p = buf.data() + start;
    for (size_t i = 0; i < n; ++i) {
      p[i] = (i >= lead && i < lead + run) ? 0 : static_cast<uint8_t>(rng());
    }
    const uint32_t seed = trial % 2 == 0 ? 0 : static_cast<uint32_t>(rng());
    ASSERT_EQ(Crc32c(p, n, seed), ReferenceCrc32c(p, n, seed))
        << "start=" << start << " lead=" << lead << " run=" << run
        << " trail=" << trail;
    chained = Crc32c(p, n, chained);
    chained_ref = ReferenceCrc32c(p, n, chained_ref);
    ASSERT_EQ(chained, chained_ref) << trial;
  }
}

TEST(Crc32cTest, SplitAnywhereEqualsWhole) {
  // Seed chaining: CRC(a ++ b) == CRC(b, seed = CRC(a)), for splits that
  // cut a zero run in two.
  std::vector<uint8_t> buf(2048, 0);
  for (size_t i = 0; i < 40; ++i) buf[i] = static_cast<uint8_t>(i * 7 + 1);
  buf[1500] = 0x5a;
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t cut : {0u, 1u, 40u, 127u, 128u, 300u, 1024u, 1500u, 2048u}) {
    EXPECT_EQ(Crc32c(buf.data() + cut, buf.size() - cut,
                     Crc32c(buf.data(), cut)),
              whole)
        << cut;
  }
}

TEST(Crc32cTest, SparseUpperLevelNodeStampsReferenceChecksum) {
  // An upper-level node on a 16 KiB extent holding two branches and one
  // spanning record: all but ~140 bytes of the extent are zero.
  rtree::Node node;
  node.level = 3;
  for (uint32_t i = 0; i < 2; ++i) {
    rtree::BranchEntry b;
    b.rect = Rect(i * 100.0, i * 100.0 + 90, 0, 50);
    b.child.block = 40 + i;
    b.child.size_class = 2;
    node.branches.push_back(b);
  }
  rtree::SpanningEntry s;
  s.rect = Rect(5, 95, 10, 20);
  s.tid = 77;
  s.linked_child = node.branches[0].child.Encode();
  node.spanning.push_back(s);

  std::vector<uint8_t> extent(16384, 0xee);  // Stale bytes from a past life.
  ASSERT_TRUE(node.Serialize(extent.data(), extent.size()).ok());
  uint32_t crc = ReferenceCrc32c(extent.data(), 6);
  crc = ReferenceCrc32c(extent.data() + rtree::kNodeHeaderBytes,
                        extent.size() - rtree::kNodeHeaderBytes, crc);
  EXPECT_EQ(DecodeU16(extent.data() + 6),
            static_cast<uint16_t>(crc ^ (crc >> 16)));
  auto back = rtree::Node::Deserialize(extent.data(), extent.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->branches.size(), 2u);
  EXPECT_EQ(back->spanning.size(), 1u);
}

}  // namespace
}  // namespace segidx::storage
