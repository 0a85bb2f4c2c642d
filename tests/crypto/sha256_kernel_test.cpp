#include "crypto/sha256_compress.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace lexfor::crypto::detail {
namespace {

// The scalar kernel on its own, against FIPS 180-4's "abc" example: on a
// host with SHA-NI the Sha256 vectors exercise the hardware kernel, so
// this keeps the reference pinned too.
TEST(Sha256KernelTest, ScalarMatchesFipsAbc) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::uint8_t block[64] = {'a', 'b', 'c', 0x80};
  block[63] = 24;  // bit length
  compress_scalar(state, block, 1);
  const std::uint32_t expected[8] = {0xba7816bf, 0x8f01cfea, 0x414140de,
                                     0x5dae2223, 0xb00361a3, 0x96177a9c,
                                     0xb410ff61, 0xf20015ad};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(state[i], expected[i]) << i;
}

TEST(Sha256KernelTest, HardwareMatchesScalar) {
  if (!hw_available()) {
    GTEST_SKIP() << "this CPU has no SHA extensions";
  }
  Rng rng(0x5a256);
  std::vector<std::uint8_t> blocks(4 * 64);
  for (int iter = 0; iter < 10000; ++iter) {
    std::array<std::uint32_t, 8> scalar;
    for (auto& word : scalar) word = static_cast<std::uint32_t>(rng());
    const std::size_t nblocks = 1 + rng.uniform(4);
    for (std::size_t i = 0; i < nblocks * 64; ++i) {
      blocks[i] = static_cast<std::uint8_t>(rng());
    }
    std::array<std::uint32_t, 8> hw = scalar;
    compress_scalar(scalar.data(), blocks.data(), nblocks);
    compress_hw(hw.data(), blocks.data(), nblocks);
    ASSERT_EQ(hw, scalar) << "input " << iter << ", " << nblocks << " blocks";
  }
}

}  // namespace
}  // namespace lexfor::crypto::detail
