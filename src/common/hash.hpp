// FNV-1a 64-bit — the repo's cross-machine stable digest primitive.
//
// Every determinism oracle that must compare across processes, machines
// and thread counts (engine state fingerprints, experiment-fleet result
// digests, the multi-tenant fleet fingerprint) hashes integers through
// this one function, so a digest printed by a bench baseline matches a
// digest computed anywhere else. Header-only and dependency-free on
// purpose: both the lowest layers (src/harp) and the orchestration layers
// (src/runner, src/fleet) fold into it without linking each other.
//
// Fast integer fold (fnv1a_u64). One FNV-1a step is h = (h ^ b) * P. For
// a zero byte the xor is the identity, so k trailing zero bytes amount to
// k multiplies by P, i.e. one multiply by P^k (mod 2^64, where the
// multiplications are associative). The state digests fold node ids,
// layers, slots, channels and placement fields — all below 2^16 — as
// 8-byte little-endian integers; absorbing only the bytes up to the
// highest non-zero one and finishing with a single multiply by the
// precomputed P^k turns 8 dependent multiplies into 2-3. The result is
// bit-identical to the byte-wise fold (pinned in tests/common_test.cpp
// and by the literal digests in tests/digest_test.cpp).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace harp {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// One FNV-1a absorption of `n` bytes into running state `h` (seed with
/// kFnvOffset). Byte-order sensitive: callers hash fixed-width integers,
/// which the repo only compares between little-endian hosts — the same
/// contract HarpEngine::state_fingerprint has always had.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                           std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Convenience absorption of one trivially-copyable value.
template <typename T>
inline std::uint64_t fnv1a_value(std::uint64_t h, const T& v) {
  return fnv1a(h, &v, sizeof v);
}

namespace detail {
/// kFnvPrimePow[k] = P^k mod 2^64.
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePow = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k) {
    pow[k] = pow[k - 1] * kFnvPrime;
  }
  return pow;
}();
}  // namespace detail

/// The byte-wise FNV-1a of the 8 little-endian bytes of `v`, computed by
/// shifts (so independent of host byte order) with the zero high bytes
/// folded into one multiply by P^k (see the header comment). Equal to
/// fnv1a(h, &v, 8) on a little-endian host.
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  const int bytes = (std::bit_width(v) + 7) / 8;
  for (int i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h * detail::kFnvPrimePow[8 - bytes];
}

}  // namespace harp
