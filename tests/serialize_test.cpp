#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "serialize/codec.hpp"
#include "serialize/value.hpp"

namespace ndsm::serialize {
namespace {

TEST(Codec, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);
  w.boolean(true);
  w.str("hello");
  w.bytes(Bytes{1, 2, 3});
  w.vec2(Vec2{1.5, -2.5});
  w.id(NodeId{99});

  Reader r{w.data()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(*r.f64(), 3.14159);
  EXPECT_EQ(r.boolean(), true);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.vec2(), (Vec2{1.5, -2.5}));
  EXPECT_EQ(r.id<NodeId>(), NodeId{99});
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, VarintBoundaries) {
  for (const std::uint64_t v : std::vector<std::uint64_t>{
           0, 1, 127, 128, 16383, 16384, std::uint64_t{1} << 32,
           std::numeric_limits<std::uint64_t>::max()}) {
    Writer w;
    w.varint(v);
    Reader r{w.data()};
    EXPECT_EQ(r.varint(), v) << v;
  }
}

TEST(Codec, VarintCompactness) {
  Writer w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Codec, SignedVarintRoundTrip) {
  for (const std::int64_t v : std::vector<std::int64_t>{
           0, -1, 1, -64, 64, std::numeric_limits<std::int64_t>::min(),
           std::numeric_limits<std::int64_t>::max()}) {
    Writer w;
    w.svarint(v);
    Reader r{w.data()};
    EXPECT_EQ(r.svarint(), v) << v;
  }
}

TEST(Codec, SmallNegativesAreCompact) {
  Writer w;
  w.svarint(-3);
  EXPECT_EQ(w.size(), 1u);
}

// Every fixed-width read fails on every truncation and consumes nothing:
// the reader still holds the whole (short) buffer afterwards.
TEST(Codec, TruncatedReadsFail) {
  Writer w;
  w.u64(0x0123456789abcdefULL);
  const Bytes full = w.data();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated{full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut)};
    Reader r{truncated};
    if (cut < 2) {
      EXPECT_FALSE(r.u16().has_value()) << cut;
    }
    if (cut < 4) {
      EXPECT_FALSE(r.u32().has_value()) << cut;
    }
    EXPECT_FALSE(r.u64().has_value()) << cut;
    EXPECT_FALSE(r.f64().has_value()) << cut;
    EXPECT_FALSE(r.id<NodeId>().has_value()) << cut;
    EXPECT_EQ(r.remaining(), cut) << "a failed read consumed input";
  }
}

TEST(Codec, TruncatedStringFails) {
  Writer w;
  w.str("hello world");
  Bytes data = w.data();
  data.resize(data.size() - 3);
  Reader r{data};
  EXPECT_FALSE(r.str().has_value());
}

// Satellite regression (DESIGN §15): a length prefix claiming 2^60 bytes
// must be rejected by the remaining()-clamp before any allocation — the
// old code called resize(declared) and died on hostile input.
TEST(Codec, HostileLengthPrefixRejectedWithoutAllocating) {
  Writer w;
  w.varint(1ULL << 60);
  w.u8(0xaa);  // one actual byte behind the 2^60 claim
  const Bytes hostile = w.data();
  {
    Reader r{hostile};
    EXPECT_FALSE(r.bytes().has_value());
  }
  {
    Reader r{hostile};
    EXPECT_FALSE(r.str().has_value());
  }
  {
    Reader r{hostile};
    EXPECT_FALSE(r.str_view().has_value());
  }
}

// Pin the varint wire contract: LEB128, at most kMaxVarintBytes (10)
// bytes, and the 10th byte may only carry bit 0 (63 shift bits already
// consumed). Overlong-but-in-range encodings stay accepted — peers may
// emit them — which this test pins so a future "canonical only" change
// is a deliberate wire break, not an accident.
TEST(Codec, VarintEncodingLimits) {
  // Non-canonical two-byte zero: 0x80 0x00 decodes to 0.
  {
    const Bytes overlong_zero{0x80, 0x00};
    Reader r{overlong_zero};
    EXPECT_EQ(r.varint(), 0u);
    EXPECT_TRUE(r.exhausted());
  }
  // Max u64 uses exactly 10 bytes and decodes.
  {
    Writer w;
    w.varint(std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(w.size(), kMaxVarintBytes);
    Reader r{w.data()};
    EXPECT_EQ(r.varint(), std::numeric_limits<std::uint64_t>::max());
  }
  // A 10th byte carrying any bit above bit 0 overflows u64: reject.
  {
    Bytes overflow(9, 0x80);
    overflow.push_back(0x02);
    Reader r{overflow};
    EXPECT_FALSE(r.varint().has_value());
  }
  // An 11-byte encoding is rejected even if it would decode in range.
  {
    Bytes overlong(10, 0x80);
    overlong.push_back(0x00);
    Reader r{overlong};
    EXPECT_FALSE(r.varint().has_value());
  }
}

TEST(Codec, EmptyStringAndBytes) {
  Writer w;
  w.str("");
  w.bytes({});
  Reader r{w.data()};
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.bytes(), Bytes{});
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, SpecialFloats) {
  Writer w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  Reader r{w.data()};
  EXPECT_EQ(*r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(*r.f64(), 0.0);
}

TEST(Value, ScalarRoundTrips) {
  const std::vector<Value> values = {
      Value{},     Value{true}, Value{false},          Value{std::int64_t{-42}},
      Value{3.5},  Value{"hi"}, Value{Bytes{9, 8, 7}}, Value::wildcard(),
      Value::type_only(Value::Type::kInt),
  };
  for (const auto& v : values) {
    auto decoded = Value::from_bytes(v.to_bytes());
    ASSERT_TRUE(decoded.is_ok()) << v.to_string();
    EXPECT_EQ(decoded.value(), v) << v.to_string();
  }
}

TEST(Value, NestedContainersRoundTrip) {
  const Value v{ValueList{
      Value{1}, Value{"two"},
      Value{ValueMap{{"k", Value{3.0}}, {"nested", Value{ValueList{Value{4}}}}}}}};
  auto decoded = Value::from_bytes(v.to_bytes());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), v);
}

TEST(Value, TypeReporting) {
  EXPECT_EQ(Value{}.type(), Value::Type::kNil);
  EXPECT_EQ(Value{1}.type(), Value::Type::kInt);
  EXPECT_EQ(Value{1.0}.type(), Value::Type::kFloat);
  EXPECT_EQ(Value{"x"}.type(), Value::Type::kString);
  EXPECT_EQ(Value{true}.type(), Value::Type::kBool);
  EXPECT_EQ(Value::wildcard().type(), Value::Type::kWildcard);
}

TEST(Value, EqualityIsTyped) {
  EXPECT_NE(Value{1}, Value{1.0});  // int vs float are distinct
  EXPECT_EQ(Value{1}, Value{1});
  EXPECT_NE(Value{"1"}, Value{1});
}

TEST(Value, CorruptDecodeFails) {
  const Bytes garbage{0xff, 0x01, 0x02};
  EXPECT_FALSE(Value::from_bytes(garbage).is_ok());
  EXPECT_EQ(Value::from_bytes(garbage).code(), ErrorCode::kCorrupt);
}

TEST(Value, TruncatedListFails) {
  const Value v{ValueList{Value{1}, Value{2}, Value{3}}};
  Bytes data = v.to_bytes();
  data.resize(data.size() - 1);
  EXPECT_FALSE(Value::from_bytes(data).is_ok());
}

// Satellite: every strict prefix of a nested encoding fails closed into
// kCorrupt — no crash, no partial value, no wrong error code.
TEST(Value, TruncationAtEveryOffsetFailsClosed) {
  ValueMap inner;
  inner.emplace("temp", Value{21.5});
  inner.emplace("tags", Value{ValueList{Value{"a"}, Value{Bytes{1, 2, 3}}}});
  const Value v{ValueList{Value{std::int64_t{-7}}, Value{inner},
                          Value{"trailing string"}}};
  const Bytes full = v.to_bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const Bytes prefix{full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut)};
    const auto decoded = Value::from_bytes(prefix);
    ASSERT_FALSE(decoded.is_ok()) << "prefix length " << cut;
    EXPECT_EQ(decoded.code(), ErrorCode::kCorrupt) << "prefix length " << cut;
  }
  EXPECT_TRUE(Value::from_bytes(full).is_ok());
}

TEST(Value, HugeDeclaredListRejected) {
  // A list header claiming 2^40 elements must not allocate.
  Writer w;
  w.u8(static_cast<std::uint8_t>(Value::Type::kList));
  w.varint(1ULL << 40);
  Reader r{w.data()};
  EXPECT_FALSE(Value::decode(r).has_value());
}

TEST(TupleMatch, ExactMatch) {
  const Tuple stored{Value{"temp"}, Value{21}, Value{true}};
  EXPECT_TRUE(tuple_matches(stored, stored));
}

TEST(TupleMatch, WildcardMatchesAnything) {
  const Tuple tmpl{Value{"temp"}, Value::wildcard()};
  EXPECT_TRUE(tuple_matches(tmpl, Tuple{Value{"temp"}, Value{42}}));
  EXPECT_TRUE(tuple_matches(tmpl, Tuple{Value{"temp"}, Value{"str"}}));
  EXPECT_FALSE(tuple_matches(tmpl, Tuple{Value{"hum"}, Value{42}}));
}

TEST(TupleMatch, TypeOnlyMatchesType) {
  const Tuple tmpl{Value::type_only(Value::Type::kInt)};
  EXPECT_TRUE(tuple_matches(tmpl, Tuple{Value{5}}));
  EXPECT_FALSE(tuple_matches(tmpl, Tuple{Value{5.0}}));
  EXPECT_FALSE(tuple_matches(tmpl, Tuple{Value{"5"}}));
}

TEST(TupleMatch, ArityMustAgree) {
  const Tuple tmpl{Value::wildcard()};
  EXPECT_FALSE(tuple_matches(tmpl, Tuple{Value{1}, Value{2}}));
  EXPECT_FALSE(tuple_matches(tmpl, Tuple{}));
}

TEST(TupleCodec, RoundTrip) {
  const Tuple t{Value{"sensor"}, Value{7}, Value{98.6}, Value::wildcard()};
  auto decoded = decode_tuple(encode_tuple(t));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), t);
}

TEST(TupleCodec, EmptyTuple) {
  auto decoded = decode_tuple(encode_tuple(Tuple{}));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(Codec, StrViewIsZeroCopy) {
  Writer w;
  w.str("hello view");
  const Bytes buf = std::move(w).take();
  Reader r{buf};
  const auto v = r.str_view();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "hello view");
  // The view aliases the encoded buffer rather than copying out of it.
  EXPECT_GE(reinterpret_cast<const std::uint8_t*>(v->data()), buf.data());
  EXPECT_LE(reinterpret_cast<const std::uint8_t*>(v->data()) + v->size(),
            buf.data() + buf.size());
}

TEST(Codec, StrViewTruncatedFails) {
  Writer w;
  w.varint(100);  // declares 100 bytes that are not there
  Reader r{w.data()};
  EXPECT_FALSE(r.str_view().has_value());
}

TEST(Value, EncodedSizeIsExact) {
  ValueMap inner;
  inner.emplace("pi", Value{3.14159});
  const std::vector<Value> samples = {
      Value{},
      Value{true},
      Value{std::int64_t{-1234567}},
      Value{2.5},
      Value{"a moderately sized string payload"},
      Value{Bytes(300, 0x5a)},
      Value{ValueList{Value{1}, Value{"two"}, Value{inner}}},
      Value::wildcard(),
      Value::type_only(Value::Type::kInt),
  };
  for (const auto& v : samples) {
    EXPECT_EQ(v.encoded_size(), v.to_bytes().size()) << v.to_string();
  }
}

// Satellite regression: encoding a flat map must not reallocate after the
// single up-front reserve computed from encoded_size().
TEST(Value, FlatMapEncodeReservesOnce) {
  ValueMap m;
  for (int i = 0; i < 32; ++i) {
    m.emplace("key_" + std::to_string(i), Value{std::int64_t{i} * 1000});
  }
  const Value v{m};

  Writer w;
  w.reserve(v.encoded_size());
  const auto* data_before = w.data().data();
  const auto cap_before = w.data().capacity();
  v.encode(w);
  EXPECT_EQ(w.data().data(), data_before);       // buffer never moved
  EXPECT_EQ(w.data().capacity(), cap_before);    // => zero reallocations
  EXPECT_EQ(w.size(), v.encoded_size());
}

// Property sweep: random values round-trip through binary encoding.
class ValueFuzzRoundTrip : public ::testing::TestWithParam<int> {};

Value random_value(Rng& rng, int depth) {
  const int pick = static_cast<int>(rng.uniform_int(0, depth > 2 ? 5 : 7));
  switch (pick) {
    case 0: return Value{};
    case 1: return Value{rng.bernoulli(0.5)};
    case 2: return Value{static_cast<std::int64_t>(rng.next_u64())};
    case 3: return Value{rng.uniform(-1e9, 1e9)};
    case 4: {
      std::string s;
      const auto len = rng.uniform_int(0, 20);
      for (int i = 0; i < len; ++i) s += static_cast<char>(rng.uniform_int(32, 126));
      return Value{s};
    }
    case 5: {
      Bytes b;
      const auto len = rng.uniform_int(0, 16);
      for (int i = 0; i < len; ++i) b.push_back(static_cast<std::uint8_t>(rng.next_u32()));
      return Value{b};
    }
    case 6: {
      ValueList list;
      const auto len = rng.uniform_int(0, 4);
      for (int i = 0; i < len; ++i) list.push_back(random_value(rng, depth + 1));
      return Value{list};
    }
    default: {
      ValueMap map;
      const auto len = rng.uniform_int(0, 4);
      for (int i = 0; i < len; ++i) {
        map.emplace("k" + std::to_string(i), random_value(rng, depth + 1));
      }
      return Value{map};
    }
  }
}

TEST_P(ValueFuzzRoundTrip, EncodeDecodeIdentity) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  for (int i = 0; i < 50; ++i) {
    const Value v = random_value(rng, 0);
    const Bytes encoded = v.to_bytes();
    EXPECT_EQ(v.encoded_size(), encoded.size()) << v.to_string();
    auto decoded = Value::from_bytes(encoded);
    ASSERT_TRUE(decoded.is_ok()) << v.to_string();
    EXPECT_EQ(decoded.value(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueFuzzRoundTrip, ::testing::Range(1, 9));

}  // namespace
}  // namespace ndsm::serialize
