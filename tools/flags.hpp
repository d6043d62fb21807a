// Command-line flags shared by mfdft_jobd, mfdft_campaign and the bench
// binaries' environment knobs. A flag's value is the argument after it; a
// numeric value must parse whole (std::from_chars, finite for doubles), so
// "4x", "abc" or an out-of-range number is an error that names the flag
// instead of a silent 0. A flag the chosen mode never reads is refused the
// same way (Flags::refuse), instead of doing nothing.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

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

  /// Moves to the next flag; false after the last argument.
  bool next() {
    if (++at_ >= argc_) return false;
    given_.emplace_back(argv_[at_]);
    return true;
  }
  [[nodiscard]] std::string arg() const { return argv_[at_]; }

  /// False, after a line naming the flag and `mode`, when one of `unread`
  /// (the flags `mode` never reads) was given.
  bool refuse(const char* mode, std::initializer_list<const char*> unread) {
    for (const char* flag : unread) {
      if (std::find(given_.begin(), given_.end(), flag) != given_.end()) {
        std::fprintf(stderr, "%s: %s does nothing in %s mode\n", argv_[0], flag,
                     mode);
        return false;
      }
    }
    return true;
  }

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
  /// Every flag read so far (not their values).
  std::vector<std::string> given_;
};

}  // namespace mfd::tools
