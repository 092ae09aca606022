#ifndef MATRYOSHKA_LANG_VALUE_H_
#define MATRYOSHKA_LANG_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/sizing.h"

namespace matryoshka::lang {

/// A dynamically-typed value of the embedded query language: the element
/// type of every lang-level bag and the result type of every scalar
/// expression. Small closed set (like a row in a dynamically-typed query
/// engine): 64-bit int, double, bool, string, and tuples of values.
class Value {
 public:
  using Tuple = std::vector<Value>;

  Value() : v_(int64_t{0}) {}
  Value(int64_t i) : v_(i) {}            // NOLINT(runtime/explicit)
  Value(int i) : v_(int64_t{i}) {}       // NOLINT(runtime/explicit)
  Value(double d) : v_(d) {}             // NOLINT(runtime/explicit)
  Value(bool b) : v_(b) {}               // NOLINT(runtime/explicit)
  Value(std::string s) : v_(std::move(s)) {}  // NOLINT(runtime/explicit)
  Value(Tuple t) : v_(std::move(t)) {}   // NOLINT(runtime/explicit)

  static Value MakeTuple(std::initializer_list<Value> xs) {
    return Value(Tuple(xs));
  }

  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_tuple() const { return std::holds_alternative<Tuple>(v_); }

  /// Typed accessors; a value of another type throws std::invalid_argument.
  int64_t AsInt() const;
  double AsDouble() const;  // accepts int too (numeric widening)
  bool AsBool() const;
  const std::string& AsString() const;
  const Tuple& AsTuple() const;
  /// Moves the tuple out of an expiring value; throws like AsTuple.
  Tuple TakeTuple() && { AsTuple(); return std::get<Tuple>(std::move(v_)); }

  /// Tuple field access; throws std::invalid_argument on a non-tuple or an
  /// out-of-range index.
  const Value& Field(std::size_t i) const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.v_ == b.v_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b);

  std::size_t HashValue() const;
  std::size_t EstimatedBytes() const;

 private:
  std::variant<int64_t, double, bool, std::string, Tuple> v_;
};

}  // namespace matryoshka::lang

namespace std {
template <>
struct hash<matryoshka::lang::Value> {
  std::size_t operator()(const matryoshka::lang::Value& v) const {
    return v.HashValue();
  }
};
}  // namespace std

namespace matryoshka::sizing_internal {
template <>
struct Sizer<lang::Value> {
  static std::size_t Of(const lang::Value& v) { return v.EstimatedBytes(); }
};
}  // namespace matryoshka::sizing_internal

#endif  // MATRYOSHKA_LANG_VALUE_H_
