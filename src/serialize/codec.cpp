#include "serialize/codec.hpp"

#include <bit>
#include <cstring>

namespace ndsm::serialize {

void Writer::svarint(std::int64_t v) {
  const auto uv = static_cast<std::uint64_t>(v);
  varint((uv << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(std::string_view s) {
  reserve(varint_size(s.size()) + s.size());
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::bytes(std::span<const std::uint8_t> b) {
  reserve(varint_size(b.size()) + b.size());
  varint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

std::optional<std::uint64_t> Reader::varint_multibyte() {
  // LEB128, at most kMaxVarintBytes (10) bytes. Non-canonical encodings of
  // in-range values (e.g. 0x80 0x00 for zero) are accepted — the tests pin
  // that — but anything that cannot fit 64 bits fails: an 11th
  // continuation byte, or a 10th byte carrying bits beyond bit 63. The old
  // decoder silently discarded those high bits, so two distinct byte
  // strings decoded to the same value — a canonicalization hole a hostile
  // peer could use to slip duplicates past byte-level dedup.
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const auto b = u8();
    if (!b) return std::nullopt;
    if (shift == 63 && (*b & 0xfe) != 0) return std::nullopt;  // overflows 64 bits
    v |= static_cast<std::uint64_t>(*b & 0x7f) << shift;
    if ((*b & 0x80) == 0) return v;
  }
  return std::nullopt;  // > 10 bytes
}

std::optional<std::int64_t> Reader::svarint() {
  const auto v = varint();
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>((*v >> 1) ^ (~(*v & 1) + 1));
}

std::optional<double> Reader::f64() {
  const auto bits = u64();
  if (!bits) return std::nullopt;
  double v;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

std::optional<bool> Reader::boolean() {
  const auto b = u8();
  if (!b) return std::nullopt;
  return *b != 0;
}

std::optional<std::string> Reader::str() {
  const auto v = str_view();
  if (!v) return std::nullopt;
  return std::string{*v};
}

std::optional<std::string_view> Reader::str_view() {
  // Clamp the length prefix against remaining() BEFORE any use: a hostile
  // prefix (say 2^60) must fail here, never reach an allocator or pointer
  // arithmetic. remaining() bounds the honest maximum — the bytes must
  // actually be present in the buffer.
  const auto n = varint();
  if (!n || *n > remaining()) return std::nullopt;
  const std::string_view s{reinterpret_cast<const char*>(data_ + pos_),
                           static_cast<std::size_t>(*n)};
  pos_ += static_cast<std::size_t>(*n);
  return s;
}

std::optional<Bytes> Reader::bytes() {
  // The Bytes copy is only constructed once bytes_view() has clamped the
  // prefix against the buffer.
  const auto b = bytes_view();
  if (!b) return std::nullopt;
  return Bytes(b->begin(), b->end());
}

std::optional<Vec2> Reader::vec2() {
  const auto x = f64();
  if (!x) return std::nullopt;
  const auto y = f64();
  if (!y) return std::nullopt;
  return Vec2{*x, *y};
}

}  // namespace ndsm::serialize
