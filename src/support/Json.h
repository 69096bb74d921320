//===- support/Json.h - Minimal canonical JSON reader/writer --------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small JSON value type for the telemetry subsystem's
/// structured results (stats::Report) and the fpint-report regression
/// gate. Design points:
///
///  * Objects preserve insertion order, and dump() emits a fixed
///    2-space-indented layout, so serialization is canonical: two
///    semantically equal documents built in the same field order
///    produce identical bytes (the bench JSON is diffable with plain
///    `diff` and stable under re-runs).
///  * Numbers distinguish integers (int64) from doubles. Doubles are
///    printed in shortest round-trip form, which makes
///    dump(parse(dump(x))) == dump(x) -- the emit -> parse -> emit
///    round-trip the test suite asserts.
///  * No external dependencies; errors are returned, not thrown.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_SUPPORT_JSON_H
#define FPINT_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fpint {
namespace json {

class Value {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Value() : K(Kind::Null) {}
  Value(bool B) : K(Kind::Bool), BoolV(B) {}
  Value(int64_t I) : K(Kind::Int), IntV(I) {}
  Value(uint64_t I) : K(Kind::Int), IntV(static_cast<int64_t>(I)) {}
  Value(int I) : K(Kind::Int), IntV(I) {}
  Value(unsigned I) : K(Kind::Int), IntV(I) {}
  Value(double D) : K(Kind::Double), DoubleV(D) {}
  Value(const char *S) : K(Kind::String), StringV(S) {}
  Value(std::string S) : K(Kind::String), StringV(std::move(S)) {}

  static Value array() {
    Value V;
    V.K = Kind::Array;
    return V;
  }
  static Value object() {
    Value V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolean() const { return BoolV; }
  int64_t integer() const { return IntV; }
  /// Numeric value of either number kind.
  double number() const {
    return K == Kind::Int ? static_cast<double>(IntV) : DoubleV;
  }
  const std::string &str() const { return StringV; }

  /// Array access.
  const std::vector<Value> &items() const { return Items; }
  void push(Value V) { Items.push_back(std::move(V)); }
  size_t size() const { return Items.size(); }
  const Value &operator[](size_t I) const { return Items[I]; }

  /// Object access (insertion-ordered). set() replaces an existing key
  /// in place, preserving its position.
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Members;
  }
  void set(const std::string &Key, Value V);
  /// nullptr when absent (or when this value is not an object).
  const Value *find(const std::string &Key) const;
  /// Convenience: member lookup that returns a default when missing or
  /// kind-mismatched.
  double numberOr(const std::string &Key, double Default) const;
  const std::string &strOr(const std::string &Key,
                           const std::string &Default) const;

  /// Canonical serialization: 2-space indent, objects in insertion
  /// order, shortest-round-trip doubles, "\n"-terminated at top level
  /// only if the caller appends it.
  std::string dump() const;

  /// Parses \p Text into \p Out. Returns false and fills \p Err (with
  /// an offset-annotated message) on malformed input. Object member
  /// order is preserved.
  static bool parse(const std::string &Text, Value &Out, std::string *Err);

  /// Shortest decimal spelling of \p D that parses back to exactly the
  /// same double (exposed for the formatting tests).
  static std::string formatDouble(double D);

private:
  void dumpTo(std::string &Out, unsigned Indent) const;

  Kind K;
  bool BoolV = false;
  int64_t IntV = 0;
  double DoubleV = 0.0;
  std::string StringV;
  std::vector<Value> Items;
  std::vector<std::pair<std::string, Value>> Members;
};

} // namespace json
} // namespace fpint

#endif // FPINT_SUPPORT_JSON_H
