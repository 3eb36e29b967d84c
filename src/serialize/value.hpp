#pragma once
// Self-describing values. Tuple-space tuples (§3.1/§3.6), service
// attributes and interop payloads (§3.9) carry Values rather than raw
// structs so heterogeneous peers can exchange data without a shared schema
// — the binary analogue of the paper's "markup language ... that provides
// semantic independence".

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "serialize/codec.hpp"

namespace ndsm::serialize {

class Value;
using ValueList = std::vector<Value>;
using ValueMap = std::map<std::string, Value>;

class Value {
 public:
  enum class Type : std::uint8_t {
    kNil = 0,
    kBool,
    kInt,
    kFloat,
    kString,
    kBytes,
    kList,
    kMap,
    kWildcard,  // matches anything of any type in tuple templates
    kTypeOnly,  // matches anything of a given type in tuple templates
  };

  Value() : data_(Nil{}) {}
  Value(bool v) : data_(v) {}                       // NOLINT(google-explicit-constructor)
  Value(std::int64_t v) : data_(v) {}               // NOLINT(google-explicit-constructor)
  Value(int v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT(google-explicit-constructor)
  Value(double v) : data_(v) {}                     // NOLINT(google-explicit-constructor)
  Value(std::string v) : data_(std::move(v)) {}     // NOLINT(google-explicit-constructor)
  Value(const char* v) : data_(std::string{v}) {}   // NOLINT(google-explicit-constructor)
  Value(Bytes v) : data_(std::move(v)) {}           // NOLINT(google-explicit-constructor)
  Value(ValueList v) : data_(std::move(v)) {}       // NOLINT(google-explicit-constructor)
  Value(ValueMap v) : data_(std::move(v)) {}        // NOLINT(google-explicit-constructor)

  // Template constructors for tuple matching (§3.6).
  static Value wildcard() {
    Value v;
    v.data_ = Wildcard{};
    return v;
  }
  static Value type_only(Type t) {
    Value v;
    v.data_ = TypeOnly{t};
    return v;
  }

  [[nodiscard]] Type type() const;

  [[nodiscard]] bool as_bool() const { return std::get<bool>(data_); }
  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(data_); }
  [[nodiscard]] double as_float() const { return std::get<double>(data_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(data_); }
  [[nodiscard]] const Bytes& as_bytes() const { return std::get<Bytes>(data_); }
  [[nodiscard]] const ValueList& as_list() const { return std::get<ValueList>(data_); }
  [[nodiscard]] const ValueMap& as_map() const { return std::get<ValueMap>(data_); }

  // Exact structural equality (wildcards compare by kind).
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  // Tuple-template matching: `this` is the template, `actual` the stored
  // value. Wildcard matches anything; TypeOnly matches any value of that
  // type; concrete values must be equal.
  [[nodiscard]] bool matches(const Value& actual) const;

  // Nesting bound for decode(): deeper inputs fail as corrupt. Encoded
  // depth costs ~2 bytes per level, so a 64 KB hostile frame could
  // otherwise drive ~32k recursive calls and overflow the stack; no honest
  // encoder in this codebase nests past single digits.
  static constexpr int kMaxDecodeDepth = 64;

  void encode(Writer& w) const;
  static std::optional<Value> decode(Reader& r);

  // Exact size of encode()'s output, computed without allocating — used to
  // reserve the output buffer so a whole encode does one allocation.
  [[nodiscard]] std::size_t encoded_size() const;

  [[nodiscard]] Bytes to_bytes() const;
  static Result<Value> from_bytes(const Bytes& data);

  [[nodiscard]] std::string to_string() const;  // debug representation

 private:
  struct Nil {
    friend bool operator==(Nil, Nil) { return true; }
  };
  struct Wildcard {
    friend bool operator==(Wildcard, Wildcard) { return true; }
  };
  struct TypeOnly {
    Type type;
    friend bool operator==(TypeOnly a, TypeOnly b) { return a.type == b.type; }
  };

  std::variant<Nil, bool, std::int64_t, double, std::string, Bytes, ValueList, ValueMap,
               Wildcard, TypeOnly>
      data_;
};

// A tuple is an ordered list of values; Tuple templates use wildcard /
// type_only entries.
using Tuple = ValueList;

[[nodiscard]] bool tuple_matches(const Tuple& tmpl, const Tuple& actual);

[[nodiscard]] Bytes encode_tuple(const Tuple& t);
[[nodiscard]] Result<Tuple> decode_tuple(const Bytes& data);

}  // namespace ndsm::serialize
