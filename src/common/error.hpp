// Error handling primitives shared by every mfdft subsystem.
//
// The library reports unrecoverable misuse (precondition violations, corrupt
// models) by throwing mfd::Error; algorithmic "no solution exists" outcomes
// are reported through return values, never exceptions.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace mfd {

/// Exception type thrown on precondition violations and internal invariant
/// failures across the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void precondition_failed(const std::string& message);
[[noreturn]] void invariant_failed(const std::string& message,
                                   const std::source_location& where);
}  // namespace detail

/// Checks a precondition on public API input; throws mfd::Error with
/// "mfdft precondition failure: <message>". Bad input reaches callers (a
/// job's result, a daemon's client), so the text names no source location:
/// it must not change with the checkout path or unrelated edits.
#define MFD_REQUIRE(cond, message)                                       \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::mfd::detail::precondition_failed((message));                     \
    }                                                                    \
  } while (false)

/// Checks an internal invariant; throws mfd::Error naming the file, line
/// and function of the check. Kept enabled in release builds: the solver
/// and simulator are cheap relative to the safety the checks buy.
#define MFD_ASSERT(cond, message)                                        \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::mfd::detail::invariant_failed((message),                         \
                                      std::source_location::current());  \
    }                                                                    \
  } while (false)

}  // namespace mfd
