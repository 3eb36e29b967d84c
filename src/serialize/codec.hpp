#pragma once
// Binary serialization: Writer appends primitives to a byte buffer,
// Reader consumes them with bounds checking. Integers use LEB128 varints
// (unsigned) and zigzag (signed) so small values stay small on the wire —
// the paper (§3.6) requires that the chosen transaction technology "not
// over-burden the network".

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/vec2.hpp"

namespace ndsm::serialize {

// A 64-bit LEB128 varint is at most 10 bytes; Reader::varint rejects
// longer (or 64-bit-overflowing) encodings as corrupt.
inline constexpr std::size_t kMaxVarintBytes = 10;

// Encoded length of a LEB128 varint — lets encoders compute exact size
// hints up front.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

[[nodiscard]] constexpr std::size_t svarint_size(std::int64_t v) {
  const auto uv = static_cast<std::uint64_t>(v);
  return varint_size((uv << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

class Writer {
 public:
  Writer() = default;
  explicit Writer(Bytes initial) : buf_(std::move(initial)) {}

  // Size hint: ensure capacity for `additional` more bytes beyond what is
  // already buffered. Encoders that know their encoded size call this once
  // so the whole encode does at most one allocation.
  void reserve(std::size_t additional) { buf_.reserve(buf_.size() + additional); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  // Fixed width, little-endian.
  void u16(std::uint16_t v) { put_le<2>(v); }
  void u32(std::uint32_t v) { put_le<4>(v); }
  void u64(std::uint64_t v) { put_le<8>(v); }
  // LEB128.
  void varint(std::uint64_t v) {
    std::size_t at = buf_.size();
    buf_.resize(at + varint_size(v));
    while (v >= 0x80) {
      buf_[at++] = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    buf_[at] = static_cast<std::uint8_t>(v);
  }
  void svarint(std::int64_t v);       // zigzag + LEB128
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  void bytes(std::span<const std::uint8_t> b);
  void vec2(Vec2 v) {
    f64(v.x);
    f64(v.y);
  }

  template <class Tag>
  void id(StrongId<Tag> v) {
    u64(v.value());
  }

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <std::size_t N>
  void put_le(std::uint64_t v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + N);
    for (std::size_t i = 0; i < N; ++i) buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  Bytes buf_;
};

// Reader returns std::optional on primitive reads; a std::nullopt means the
// buffer was truncated or corrupt. Composite decoders surface that as
// ErrorCode::kCorrupt.
//
// Adversarial-input contract (DESIGN §15): every read validates length
// prefixes against remaining() before allocating or advancing, varint
// rejects overlong/overflowing LEB128, and no input byte string can cause
// UB or an allocation larger than the input itself. These primitives are
// fuzzed directly (fuzz/targets/value_decode.cpp).
//
// The fixed-width reads and the one-byte varint case are inline, with one
// bounds check per read; a failed fixed-width read consumes nothing.
class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::optional<std::uint8_t> u8() {
    if (!need(1)) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint16_t> u16() { return fixed<std::uint16_t>(); }
  std::optional<std::uint32_t> u32() { return fixed<std::uint32_t>(); }
  std::optional<std::uint64_t> u64() { return fixed<std::uint64_t>(); }
  std::optional<std::uint64_t> varint() {
    // Lengths, counts and small ids are almost always one byte.
    if (need(1) && data_[pos_] < 0x80) return data_[pos_++];
    return varint_multibyte();
  }
  std::optional<std::int64_t> svarint();
  std::optional<double> f64();
  std::optional<bool> boolean();
  std::optional<std::string> str();
  // Zero-copy read of a length-prefixed string: the view aliases the
  // Reader's underlying buffer and is only valid while that buffer lives.
  std::optional<std::string_view> str_view();
  std::optional<Bytes> bytes();
  // Zero-copy bytes(): the span aliases the Reader's underlying buffer.
  // Same clamp-before-use contract as str_view().
  std::optional<std::span<const std::uint8_t>> bytes_view() {
    const auto n = varint();
    if (!n || *n > remaining()) return std::nullopt;
    const std::span<const std::uint8_t> b{data_ + pos_, static_cast<std::size_t>(*n)};
    pos_ += b.size();
    return b;
  }
  std::optional<Vec2> vec2();

  template <class Id>
  std::optional<Id> id() {
    auto v = u64();
    if (!v) return std::nullopt;
    return Id{*v};
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ >= size_; }

 private:
  [[nodiscard]] bool need(std::size_t n) const { return size_ - pos_ >= n; }

  template <class T>
  std::optional<T> fixed() {
    if (!need(sizeof(T))) return std::nullopt;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }
  std::optional<std::uint64_t> varint_multibyte();

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace ndsm::serialize
