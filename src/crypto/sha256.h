// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for evidence integrity (chain of custody), disk imaging, the
// hash-based known-file search of Table-1 scene 18, and the verdict-cache
// key legal::fingerprint.  Streaming interface plus one-shot helpers.
//
// Two block-compression kernels sit behind this class: a portable scalar
// loop and one on the x86 SHA extensions (SHA-NI).  The kernel is chosen
// once per process, on first use, from what the CPU supports; there is
// no setting for it.  Both give identical digests (the scalar kernel is
// the fallback and the reference tests hold the other to).

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace lexfor::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() noexcept { reset(); }

  // Resets to the initial state so the object can be reused.
  void reset() noexcept;

  // Absorbs `len` bytes.
  void update(const std::uint8_t* data, std::size_t len) noexcept;
  void update(const Bytes& data) noexcept {
    update(data.data(), data.size());
  }
  void update(std::string_view s) noexcept {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  // Finalizes and returns the digest.  The object must be reset() before
  // further use.
  [[nodiscard]] Digest finish() noexcept;

  // One-shot helpers.
  [[nodiscard]] static Digest hash(const Bytes& data) noexcept;
  [[nodiscard]] static Digest hash(std::string_view s) noexcept;
  [[nodiscard]] static std::string hex(const Bytes& data);
  [[nodiscard]] static std::string hex(std::string_view s);

 private:
  // Absorbs `nblocks` whole 64-byte blocks with the selected kernel.
  void process_blocks(const std::uint8_t* blocks,
                      std::size_t nblocks) noexcept;

  std::uint32_t h_[8];
  std::uint8_t buffer_[64];
  std::size_t buffered_;
  std::uint64_t total_len_;
};

// HMAC-SHA256 (RFC 2104): keyed integrity for chain-of-custody records.
[[nodiscard]] Sha256::Digest hmac_sha256(const Bytes& key, const Bytes& message) noexcept;

}  // namespace lexfor::crypto
