// Command-line flags shared by mfdft_jobd, mfdft_campaign and the bench
// binaries' environment knobs. A flag's value is the argument after it; a
// numeric value must parse whole (std::from_chars, finite for doubles), so
// "4x", "abc" or an out-of-range number is an error that names the flag
// instead of a silent 0.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <system_error>
#include <type_traits>

namespace mfd::tools {

/// Parses all of `text` as a T into *out. False, leaving *out as it was,
/// when a character is left over, the value is out of range or, for
/// floating point, not finite.
template <typename T>
bool parse_whole(const std::string& text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool ok = error == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (ok) *out = value;
  return ok;
}

class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Moves to the next argument; false after the last one.
  bool next() { return ++at_ < argc_; }
  [[nodiscard]] std::string arg() const { return argv_[at_]; }

  /// Takes the current flag's value into *out. False, after a message that
  /// names the flag, when the value is missing or (for numbers) malformed.
  bool take(std::string* out) {
    if (at_ + 1 >= argc_) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv_[0], argv_[at_]);
      return false;
    }
    *out = argv_[++at_];
    return true;
  }
  template <typename T>
  bool take(T* out) {
    std::string text;
    if (!take(&text)) return false;
    if (!parse_whole(text, out)) {
      std::fprintf(stderr, "%s: bad value '%s' for %s\n", argv_[0],
                   text.c_str(), argv_[at_ - 1]);
      return false;
    }
    return true;
  }

 private:
  int argc_;
  char** argv_;
  int at_ = 0;
};

}  // namespace mfd::tools
