#include <gtest/gtest.h>

#include <random>
#include <string>

#include "support/compress.hpp"

using namespace sv;

namespace {
std::vector<u8> bytes(const std::string &s) { return {s.begin(), s.end()}; }
} // namespace

TEST(Svz, EmptyRoundTrip) {
  const std::vector<u8> raw;
  EXPECT_EQ(svz::decompress(svz::compress(raw)), raw);
}

TEST(Svz, ShortLiteralRoundTrip) {
  const auto raw = bytes("abc");
  EXPECT_EQ(svz::decompress(svz::compress(raw)), raw);
}

TEST(Svz, RepetitiveInputCompresses) {
  std::string s;
  for (int i = 0; i < 200; ++i) s += "CompoundStmt DeclRefExpr BinaryOperator ";
  const auto raw = bytes(s);
  const auto packed = svz::compress(raw);
  EXPECT_LT(packed.size(), raw.size() / 4);
  EXPECT_EQ(svz::decompress(packed), raw);
}

TEST(Svz, OverlappingMatchRoundTrip) {
  // "aaaa..." forces matches whose source overlaps their destination.
  const auto raw = bytes(std::string(1000, 'a'));
  const auto packed = svz::compress(raw);
  EXPECT_LT(packed.size(), 150u); // ~53 max-length matches + control bytes + header
  EXPECT_EQ(svz::decompress(packed), raw);
}

class SvzRandomRoundTrip : public ::testing::TestWithParam<std::pair<usize, u32>> {};

TEST_P(SvzRandomRoundTrip, RoundTrips) {
  const auto [size, alphabet] = GetParam();
  std::mt19937 rng(static_cast<u32>(size * 7919 + alphabet));
  std::vector<u8> raw(size);
  for (auto &b : raw) b = static_cast<u8>(rng() % alphabet);
  EXPECT_EQ(svz::decompress(svz::compress(raw)), raw);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SvzRandomRoundTrip,
    ::testing::Values(std::pair<usize, u32>{1, 256}, std::pair<usize, u32>{100, 4},
                      std::pair<usize, u32>{4096, 2}, std::pair<usize, u32>{4097, 256},
                      std::pair<usize, u32>{100000, 16}, std::pair<usize, u32>{100000, 256},
                      std::pair<usize, u32>{8, 1}));

TEST(Svz, BadMagicRejected) {
  EXPECT_THROW((void)svz::decompress(bytes("not compressed data")), ParseError);
}

TEST(Svz, TruncatedRejected) {
  auto packed = svz::compress(bytes(std::string(500, 'q')));
  packed.resize(packed.size() - 1);
  EXPECT_THROW((void)svz::decompress(packed), ParseError);
}

TEST(Svz, ImpossibleClaimedSizeRejected) {
  // A 12-byte stream cannot expand to 4 GiB; the header is rejected before
  // anything is reserved.
  auto packed = svz::compress(bytes("abc"));
  ASSERT_EQ(packed.size(), 12u);
  for (usize i = 4; i < 8; ++i) packed[i] = 0xFF;
  try {
    (void)svz::decompress(packed);
    ADD_FAILURE() << "decompress accepted a 4 GiB claim";
  } catch (const ParseError &e) {
    EXPECT_NE(std::string(e.what()).find("claimed size"), std::string::npos) << e.what();
  }
}

TEST(Svz, LooksCompressed) {
  EXPECT_TRUE(svz::looksCompressed(svz::compress(bytes("x"))));
  EXPECT_FALSE(svz::looksCompressed(bytes("xyzw")));
}
