// SHA-256 block compression kernels behind crypto::Sha256.
//
// Internal: Sha256 picks one of these once per process; tests include
// this header to check the hardware kernel against the scalar one.  Not
// part of the public crypto surface.

#pragma once

#include <cstddef>
#include <cstdint>

namespace lexfor::crypto::detail {

// Both kernels absorb `nblocks` consecutive 64-byte blocks into `state`
// (the eight working words H0..H7 of FIPS 180-4).

// Portable FIPS 180-4 loop: the fallback, and the reference the
// hardware kernel is tested against.
void compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t nblocks) noexcept;

// x86 SHA extensions (SHA-NI).  Call only when hw_available(); on
// targets where it is not compiled it forwards to compress_scalar.
void compress_hw(std::uint32_t state[8], const std::uint8_t* blocks,
                 std::size_t nblocks) noexcept;

// True when compress_hw was compiled in and this CPU has SHA and SSE4.1.
[[nodiscard]] bool hw_available() noexcept;

}  // namespace lexfor::crypto::detail
