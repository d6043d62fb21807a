// One output file of a tool (--out, --trace, --json, --emit-jobs). Both
// tools open every output before any work runs, so a path that cannot be
// opened costs nothing, and check it once the last byte is written. Each
// failure prints one line naming the path; the caller then exits 2.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

namespace mfd::tools {

class OutputFile {
 public:
  /// Opens `path` for writing, truncating it. An empty path asks for no
  /// file: stdout when `stdout_if_empty`, else nothing. False after a
  /// "cannot open output" line.
  bool open(const char* argv0, const std::string& path,
            bool stdout_if_empty = false) {
    path_ = path;
    to_stdout_ = path.empty() && stdout_if_empty;
    if (path.empty()) return true;
    file_.open(path, std::ios::binary);
    if (file_) return true;
    std::fprintf(stderr, "%s: cannot open output '%s'\n", argv0, path.c_str());
    return false;
  }

  /// False when no output was asked for.
  explicit operator bool() const { return to_stdout_ || file_.is_open(); }
  [[nodiscard]] std::ostream& stream() {
    return to_stdout_ ? std::cout : file_;
  }

  /// Flushes the output. False after a "write to '…' failed" line when a
  /// write failed (a full disk, a closed pipe).
  bool finish(const char* argv0) {
    if (!*this || stream().flush()) return true;
    std::fprintf(stderr, "%s: write to '%s' failed\n", argv0,
                 to_stdout_ ? "<stdout>" : path_.c_str());
    return false;
  }

 private:
  std::string path_;
  bool to_stdout_ = false;
  std::ofstream file_;
};

}  // namespace mfd::tools
