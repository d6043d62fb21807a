#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <fstream>

#include "common/error.hpp"

namespace mfd {

namespace {

void append_escaped(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_utf8(std::string& out, std::uint32_t code_point) {
  if (code_point < 0x80) {
    out += static_cast<char>(code_point);
  } else if (code_point < 0x800) {
    out += static_cast<char>(0xC0 | (code_point >> 6));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else if (code_point < 0x10000) {
    out += static_cast<char>(0xE0 | (code_point >> 12));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code_point >> 18));
    out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  }
}

/// Strict recursive-descent parser over the whole input string, tracking
/// 1-based line/column for error messages.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    skip_whitespace();
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing content after the JSON value");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::string token;
    for (std::size_t i = pos_; i < text_.size() && token.size() < 16; ++i) {
      const char c = text_[i];
      if (c == '\n' || c == '\r') break;
      token += c;
    }
    throw Error("Json::parse(): " + what + " at line " +
                std::to_string(line_) + ":" + std::to_string(column_) +
                (token.empty() ? std::string(" (end of input)")
                               : " near '" + token + "'"));
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  char next() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      next();
    }
  }

  void expect(char c, const char* context) {
    if (at_end() || peek() != c) {
      fail(std::string("expected '") + c + "' " + context);
    }
    next();
  }

  void expect_keyword(const char* keyword) {
    const std::string_view expected(keyword);
    if (text_.compare(pos_, expected.size(), expected) != 0) {
      fail(std::string("invalid literal (expected '") + keyword + "')");
    }
    for (std::size_t i = 0; i < expected.size(); ++i) next();
  }

  Json parse_value() {
    if (at_end()) fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        expect_keyword("null");
        return Json(nullptr);
      case 't':
        expect_keyword("true");
        return Json(true);
      case 'f':
        expect_keyword("false");
        return Json(false);
      case '"':
        return Json(parse_string());
      case '[':
      case '{': {
        // Bounded recursion: a line of '[' from a socket must throw, not
        // overflow the stack.
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        Json nested = peek() == '[' ? parse_array() : parse_object();
        --depth_;
        return nested;
      }
      default:
        return parse_number();
    }
  }

  std::string parse_string() {
    expect('"', "to open a string");
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) fail("unterminated escape sequence");
      const char escape = next();
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          std::uint32_t code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (at_end() || next() != '\\' || at_end() || next() != 'u') {
              fail("high surrogate not followed by \\u escape");
            }
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) fail("truncated \\u escape");
      const char c = next();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (!at_end() && peek() == '-') next();
    if (at_end() || peek() < '0' || peek() > '9') {
      fail("invalid number");
    }
    if (peek() == '0') {
      next();
      if (!at_end() && peek() >= '0' && peek() <= '9') {
        fail("leading zero in number");
      }
    } else {
      while (!at_end() && peek() >= '0' && peek() <= '9') next();
    }
    if (!at_end() && peek() == '.') {
      is_double = true;
      next();
      if (at_end() || peek() < '0' || peek() > '9') {
        fail("digit required after decimal point");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') next();
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      is_double = true;
      next();
      if (!at_end() && (peek() == '+' || peek() == '-')) next();
      if (at_end() || peek() < '0' || peek() > '9') {
        fail("digit required in exponent");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') next();
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Json(static_cast<std::int64_t>(parsed));
      }
      // Integer overflow: fall through to double.
    }
    // A value no double holds (1e999, a 400-digit integer) would come back
    // as an infinity that dump() refuses, so it fails here, as a parse.
    const double parsed = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(parsed)) fail("number out of range");
    return Json(parsed);
  }

  Json parse_array() {
    expect('[', "to open an array");
    Json out = Json::array();
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      next();
      return out;
    }
    for (;;) {
      skip_whitespace();
      out.push_back(parse_value());
      skip_whitespace();
      if (at_end()) fail("unterminated array");
      const char c = next();
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  Json parse_object() {
    expect('{', "to open an object");
    Json out = Json::object();
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      next();
      return out;
    }
    for (;;) {
      skip_whitespace();
      if (at_end() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (out.get(key) != nullptr) fail("duplicate object key '" + key + "'");
      skip_whitespace();
      expect(':', "after object key");
      skip_whitespace();
      out.set(std::move(key), parse_value());
      skip_whitespace();
      if (at_end()) fail("unterminated object");
      const char c = next();
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  /// Deepest array/object nesting accepted. The deepest document the
  /// library writes (a campaign spec) nests about 4 levels.
  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int depth_ = 0;
};

void write_value(std::string& out, const Json& value) {
  switch (value.type()) {
    case Json::Type::kNull:
      out += "null";
      return;
    case Json::Type::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case Json::Type::kInt:
      out += std::to_string(value.as_int());
      return;
    case Json::Type::kDouble:
      out += shortest_double(value.as_double());
      return;
    case Json::Type::kString:
      append_escaped(out, value.as_string());
      return;
    case Json::Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& item : value.as_array()) {
        if (!first) out += ',';
        first = false;
        write_value(out, item);
      }
      out += ']';
      return;
    }
    case Json::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.as_object()) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, key);
        out += ':';
        write_value(out, member);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string shortest_double(double value) {
  MFD_REQUIRE(std::isfinite(value),
              "Json: non-finite doubles cannot be serialized");
  char buffer[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  std::string out(buffer);
  // Keep doubles distinguishable from ints on re-parse ("2" would come back
  // as kInt and break round-trip equality).
  if (out.find('.') == std::string::npos &&
      out.find('e') == std::string::npos &&
      out.find("inf") == std::string::npos &&
      out.find("nan") == std::string::npos) {
    out += ".0";
  }
  return out;
}

bool Json::as_bool() const {
  MFD_REQUIRE(is_bool(), "Json::as_bool(): value is not a bool");
  return std::get<bool>(value_);
}

std::int64_t Json::as_int() const {
  MFD_REQUIRE(is_int(), "Json::as_int(): value is not an integer");
  return std::get<std::int64_t>(value_);
}

double Json::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  MFD_REQUIRE(is_double(), "Json::as_double(): value is not a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  MFD_REQUIRE(is_string(), "Json::as_string(): value is not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  MFD_REQUIRE(is_array(), "Json::as_array(): value is not an array");
  return std::get<Array>(value_);
}

Json::Array& Json::as_array() {
  MFD_REQUIRE(is_array(), "Json::as_array(): value is not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  MFD_REQUIRE(is_object(), "Json::as_object(): value is not an object");
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  MFD_REQUIRE(is_object(), "Json::as_object(): value is not an object");
  return std::get<Object>(value_);
}

void Json::set(std::string key, Json value) {
  Object& members = as_object();
  for (const auto& [existing, _] : members) {
    MFD_REQUIRE(existing != key, "Json::set(): duplicate key '" + key + "'");
  }
  members.emplace_back(std::move(key), std::move(value));
}

const Json* Json::get(const std::string& key) const {
  for (const auto& [existing, member] : as_object()) {
    if (existing == key) return &member;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* member = get(key);
  MFD_REQUIRE(member != nullptr, "Json::at(): missing key '" + key + "'");
  return *member;
}

void Json::push_back(Json value) {
  as_array().push_back(std::move(value));
}

std::string Json::dump() const {
  std::string out;
  write_value(out, *this);
  return out;
}

void Json::save(const std::string& path) const {
  std::ofstream out(path);
  MFD_REQUIRE(out.is_open(), "Json::save(): cannot open '" + path + "'");
  out << dump() << '\n';
  MFD_REQUIRE(static_cast<bool>(out), "Json::save(): write failed for '" +
                                          path + "'");
}

Json Json::parse(const std::string& text) {
  return Parser(text).run();
}

ObjectReader::ObjectReader(const Json& json, std::string_view type)
    : members_(json.is_object()
                   ? json.as_object()
                   : throw Error(std::string(type) + ": not a JSON object")),
      type_(type),
      asked_(members_.size(), false) {}

const Json* ObjectReader::get(std::string_view key) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].first == key) {
      asked_[i] = true;
      return &members_[i].second;
    }
  }
  return nullptr;
}

const Json& ObjectReader::at(std::string_view key) {
  const Json* member = get(key);
  if (member == nullptr) fail(key, "is required");
  return *member;
}

bool ObjectReader::read(std::string_view key, std::string& out) {
  const Json* member = get(key);
  if (member == nullptr) return false;
  if (!member->is_string()) fail(key, "must be a string");
  out = member->as_string();
  return true;
}

bool ObjectReader::read(std::string_view key, double& out) {
  const Json* member = get(key);
  if (member == nullptr) return false;
  if (!member->is_number()) fail(key, "must be a number");
  out = member->as_double();
  return true;
}

std::int64_t ObjectReader::integer(std::string_view key, const Json& member,
                                   std::int64_t min, std::int64_t max) const {
  if (!member.is_int() || member.as_int() < min || member.as_int() > max) {
    fail(key, "must be an integer in [" + std::to_string(min) + ", " +
                  std::to_string(max) + "]");
  }
  return member.as_int();
}

void ObjectReader::reject_unread() const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!asked_[i]) fail(members_[i].first, "is not a known field");
  }
}

void ObjectReader::fail(std::string_view key, const std::string& what) const {
  throw Error(std::string(type_) + ": '" + std::string(key) + "' " + what);
}

}  // namespace mfd
