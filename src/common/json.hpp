// Minimal JSON value / parser / writer for the service layer and benches.
//
// No external dependency, same spirit as common/csv: a small `Json` variant
// type, a strict recursive-descent parser (full escape handling, duplicate
// keys rejected, errors carry 1-based line:column), and a deterministic
// compact writer — object keys keep insertion order, doubles are written as
// the shortest representation that parses back bit-identical, so every value
// the library emits round-trips exactly and two equal values always
// serialize to the same bytes regardless of how they were built.
//
// ObjectReader is the one checked field reader every from_json() of the
// service's specs, results and worker envelopes goes through.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace mfd {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Insertion-ordered key/value pairs; duplicate keys are rejected both by
  /// the parser and by set().
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool value) : value_(value) {}
  Json(int value) : value_(static_cast<std::int64_t>(value)) {}
  Json(std::int64_t value) : value_(value) {}
  Json(double value) : value_(value) {}
  Json(const char* value) : value_(std::string(value)) {}
  Json(std::string value) : value_(std::move(value)) {}
  Json(Array value) : value_(std::move(value)) {}
  Json(Object value) : value_(std::move(value)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  [[nodiscard]] Type type() const {
    return static_cast<Type>(value_.index());
  }
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_int() const { return type() == Type::kInt; }
  [[nodiscard]] bool is_double() const { return type() == Type::kDouble; }
  /// kInt or kDouble.
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw mfd::Error on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  /// Numeric value as double (accepts kInt and kDouble).
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  // --- object helpers -----------------------------------------------------

  /// Appends a key/value pair; throws when this is not an object or the key
  /// is already present (keeping the write order canonical).
  void set(std::string key, Json value);

  /// Member lookup; nullptr when absent. Throws when this is not an object.
  [[nodiscard]] const Json* get(const std::string& key) const;

  /// Member lookup; throws when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;

  /// Appends to an array; throws when this is not an array.
  void push_back(Json value);

  [[nodiscard]] bool operator==(const Json&) const = default;

  // --- serialization ------------------------------------------------------

  /// Compact deterministic serialization: no whitespace, object keys in
  /// insertion order, ints as decimal, doubles as the shortest string that
  /// strtod()s back to the same bits. Non-finite doubles throw (JSON has no
  /// NaN/Infinity).
  [[nodiscard]] std::string dump() const;

  /// Writes dump() plus a trailing newline to a file; throws mfd::Error when
  /// the file cannot be opened.
  void save(const std::string& path) const;

  /// Strict parse of exactly one JSON value (trailing whitespace allowed,
  /// anything else rejected). Errors throw mfd::Error with 1-based
  /// line:column and the offending token; so do nesting deeper than 256
  /// arrays/objects and a number no finite double holds, so every parsed
  /// value dumps again.
  static Json parse(const std::string& text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               Array, Object>
      value_;
};

/// Formats a double as the shortest decimal string that round-trips to the
/// same bits (the writer's number format, exposed for benches that format
/// numbers outside a Json value).
[[nodiscard]] std::string shortest_double(double value);

/// Reads one JSON object's members into typed fields. An absent key keeps
/// the field's value. A wrong type, an integer the field's type cannot hold,
/// or — at reject_unread() — a key no read asked for throws mfd::Error that
/// names the object's type and the key, e.g. "JobSpec: 'threads' must be an
/// integer in [-2147483648, 2147483647]". Keys are looked up as
/// string_views, so a read allocates nothing.
class ObjectReader {
 public:
  /// Throws unless `json` is an object. `type` names it in every error;
  /// both are borrowed, so a temporary Json is refused.
  ObjectReader(const Json& json, std::string_view type);
  ObjectReader(Json&& json, std::string_view type) = delete;

  /// The member under `key`, or nullptr when absent.
  [[nodiscard]] const Json* get(std::string_view key);
  /// The member under `key`; throws when absent.
  [[nodiscard]] const Json& at(std::string_view key);

  /// Typed reads; each returns whether the key was present.
  bool read(std::string_view key, std::string& out);
  /// Accepts an integer or a double.
  bool read(std::string_view key, double& out);
  /// An integer within T's range; JSON integers being int64, an unsigned
  /// field tops out at INT64_MAX.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  bool read(std::string_view key, T& out) {
    const Json* member = get(key);
    if (member == nullptr) return false;
    out = static_cast<T>(integer(
        key, *member, std::numeric_limits<T>::min(),
        std::min<std::uint64_t>(std::numeric_limits<T>::max(),
                                std::numeric_limits<std::int64_t>::max())));
    return true;
  }

  /// Throws naming the first key that no get(), at() or read() asked for —
  /// what a strict type calls once its reads are done.
  void reject_unread() const;

  /// Throws "<type>: '<key>' <what>".
  [[noreturn]] void fail(std::string_view key, const std::string& what) const;

 private:
  [[nodiscard]] std::int64_t integer(std::string_view key, const Json& member,
                                     std::int64_t min, std::int64_t max) const;

  const Json::Object& members_;
  std::string_view type_;
  /// Per member: asked for by some read.
  std::vector<bool> asked_;
};

}  // namespace mfd
