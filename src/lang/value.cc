#include "lang/value.h"

#include <stdexcept>

#include "common/hash.h"

namespace matryoshka::lang {

namespace {

[[noreturn]] void ThrowNot(const char* what, const Value& v) {
  throw std::invalid_argument(std::string("Value is not ") + what + ": " +
                              v.ToString());
}

}  // namespace

int64_t Value::AsInt() const {
  if (!is_int()) ThrowNot("an int", *this);
  return std::get<int64_t>(v_);
}

double Value::AsDouble() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(v_));
  if (!is_double()) ThrowNot("numeric", *this);
  return std::get<double>(v_);
}

bool Value::AsBool() const {
  if (!is_bool()) ThrowNot("a bool", *this);
  return std::get<bool>(v_);
}

const std::string& Value::AsString() const {
  if (!is_string()) ThrowNot("a string", *this);
  return std::get<std::string>(v_);
}

const Value::Tuple& Value::AsTuple() const {
  if (!is_tuple()) ThrowNot("a tuple", *this);
  return std::get<Tuple>(v_);
}

const Value& Value::Field(std::size_t i) const {
  const Tuple& t = AsTuple();
  if (i >= t.size()) {
    throw std::invalid_argument("tuple field " + std::to_string(i) +
                                " out of range (size " +
                                std::to_string(t.size()) + ")");
  }
  return t[i];
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(std::get<int64_t>(v_));
  if (is_double()) return std::to_string(std::get<double>(v_));
  if (is_bool()) return std::get<bool>(v_) ? "true" : "false";
  if (is_string()) return "\"" + std::get<std::string>(v_) + "\"";
  std::string s = "(";
  const Tuple& t = std::get<Tuple>(v_);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i > 0) s += ", ";
    s += t[i].ToString();
  }
  return s + ")";
}

bool operator<(const Value& a, const Value& b) {
  if (a.v_.index() != b.v_.index()) return a.v_.index() < b.v_.index();
  return a.v_ < b.v_;
}

std::size_t Value::HashValue() const {
  std::size_t seed = v_.index();
  if (is_int()) return HashCombine(seed, std::hash<int64_t>{}(std::get<int64_t>(v_)));
  if (is_double()) return HashCombine(seed, std::hash<double>{}(std::get<double>(v_)));
  if (is_bool()) return HashCombine(seed, std::get<bool>(v_) ? 1 : 2);
  if (is_string()) {
    return HashCombine(seed, std::hash<std::string>{}(std::get<std::string>(v_)));
  }
  for (const Value& x : std::get<Tuple>(v_)) {
    seed = HashCombine(seed, x.HashValue());
  }
  return seed;
}

std::size_t Value::EstimatedBytes() const {
  if (is_string()) return 16 + std::get<std::string>(v_).size();
  if (is_tuple()) {
    std::size_t total = 8;
    for (const Value& x : std::get<Tuple>(v_)) total += x.EstimatedBytes();
    return total;
  }
  return 8;
}

}  // namespace matryoshka::lang
