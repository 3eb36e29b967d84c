#pragma once
// Raw byte payloads exchanged by the middleware.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ndsm {

using Bytes = std::vector<std::uint8_t>;

[[nodiscard]] inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

[[nodiscard]] inline std::string to_string(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

// FNV-1a 64-bit, used for content digests, determinism digests, trace ids
// and (placeholder) password verification in service discovery — not
// cryptographic. kFnvBasis and kFnvPrime are the standard parameters.
// fnv1a() and the trace-id allocator start from kFnvTruncatedBasis, the
// standard basis with its last decimal digit dropped, as they always
// have: WAL, checkpoint and ReplFS block checksums, password digests and
// trace ids are derived from it, so it must not be corrected.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvTruncatedBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = kFnvTruncatedBasis;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(const Bytes& b) {
  return fnv1a(std::string_view{reinterpret_cast<const char*>(b.data()), b.size()});
}

// Folds the eight bytes of `v`, least significant first, into hash `h`.
[[nodiscard]] constexpr std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

// Folds the whole word `v` into hash `h` in one xor-multiply step: the
// cheaper fold behind the engine's event digest and the sharded world's
// delivery digests.
[[nodiscard]] constexpr std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

}  // namespace ndsm
