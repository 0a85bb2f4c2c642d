#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_compress.h"
#include "util/bytes.h"

// The SHA-NI kernel is compiled only for x86-64 with GCC or Clang, with
// the target attribute on that one function: the rest of the tree stays
// on the baseline ISA, and the CPU is checked at run time.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LEXFOR_SHA256_HW 1
#include <immintrin.h>
#else
#define LEXFOR_SHA256_HW 0
#endif

namespace lexfor::crypto {
namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

// The kernel every Sha256 uses, chosen on first use.
auto compress() noexcept {
  static const auto fn =
      detail::hw_available() ? detail::compress_hw : detail::compress_scalar;
  return fn;
}

}  // namespace

namespace detail {

void compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t nblocks) noexcept {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = load_be32(blocks + i * 4);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if LEXFOR_SHA256_HW

bool hw_available() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

// SHA256RNDS2 works on the state as two registers, ABEF and CDGH, and
// does two rounds per call; each four-round group below is two calls.
// SHA256MSG1/MSG2 compute the message schedule four words at a time:
// group g's words come from groups g-4..g-1, so four registers, reused
// round-robin, hold the schedule.
__attribute__((target("sha,sse4.1"))) void compress_hw(
    std::uint32_t state[8], const std::uint8_t* blocks,
    std::size_t nblocks) noexcept {
  // Byte-swaps each 32-bit lane: the message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);              // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);            // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);    // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);         // CDGH

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          bswap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      __m128i& next = w[(g + 1) & 3];
      __m128i& prev = w[(g + 3) & 3];
      __m128i msg = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (g >= 3 && g < 15) {
        // Finish the schedule words of group g+1.
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (g >= 1 && g < 13) {
        // Start the schedule words of group g+3.
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);             // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);            // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);         // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);            // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#else

bool hw_available() noexcept { return false; }

void compress_hw(std::uint32_t state[8], const std::uint8_t* blocks,
                 std::size_t nblocks) noexcept {
  compress_scalar(state, blocks, nblocks);
}

#endif

}  // namespace detail

void Sha256::reset() noexcept {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  buffered_ = 0;
  total_len_ = 0;
}

void Sha256::process_blocks(const std::uint8_t* blocks,
                            std::size_t nblocks) noexcept {
  compress()(h_, blocks, nblocks);
}

void Sha256::update(const std::uint8_t* data, std::size_t len) noexcept {
  if (len == 0) return;
  total_len_ += len;
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, std::size_t{64} - buffered_);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < 64) return;
    process_blocks(buffer_, 1);
    buffered_ = 0;
  }
  // Fast path: every whole block straight from the input, in one call.
  const std::size_t whole = len / 64;
  if (whole > 0) {
    process_blocks(data, whole);
    data += whole * 64;
    len -= whole * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffered_ = len;
  }
}

Sha256::Digest Sha256::finish() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  // The last one or two blocks: the buffered tail, 0x80, zeros to 56
  // mod 64, then the 64-bit big-endian bit length, compressed in one
  // call.
  std::uint8_t last[128] = {};
  std::memcpy(last, buffer_, buffered_);
  last[buffered_] = 0x80;
  const std::size_t nblocks = buffered_ < 56 ? 1 : 2;
  std::uint8_t* len_field = last + nblocks * 64 - 8;
  for (int i = 0; i < 8; ++i) {
    len_field[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_blocks(last, nblocks);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    store_be32(out.data() + i * 4, h_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(const Bytes& data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256::Digest Sha256::hash(std::string_view s) noexcept {
  Sha256 h;
  h.update(s);
  return h.finish();
}

std::string Sha256::hex(const Bytes& data) {
  const Digest d = hash(data);
  return to_hex(d.data(), d.size());
}

std::string Sha256::hex(std::string_view s) {
  const Digest d = hash(s);
  return to_hex(d.data(), d.size());
}

Sha256::Digest hmac_sha256(const Bytes& key, const Bytes& message) noexcept {
  constexpr std::size_t kBlock = 64;
  // Key block, zero-padded; a key longer than a block is hashed first.
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    const Sha256::Digest d = Sha256::hash(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlock> ipad, opad;
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ipad.data(), ipad.size());
  inner.update(message);
  const auto inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad.data(), opad.size());
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

}  // namespace lexfor::crypto
