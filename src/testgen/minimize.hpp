// Test-set minimization.
//
// The generator favours coverage, not vector count; this pass selects a
// minimum-cardinality subset of vectors that still detects every fault. The
// paper notes that finding the minimum set of test cuts is "a complementary
// problem of the test path generation"; we solve the general form — minimum
// set cover over the fault/vector detection matrix — exactly with the
// in-repo ILP solver, with a greedy fallback for large instances.
#pragma once

#include "sim/pressure.hpp"
#include "testgen/vector_gen.hpp"

namespace mfd::testgen {

struct MinimizeOptions {
  /// Solve exactly with the ILP when the instance is at most this many
  /// vectors; otherwise (or when the ILP finds no cover within its 20 s
  /// limit) fall back to greedy set cover.
  int exact_threshold = 64;
  /// Optional cooperative deadline/cancellation, threaded into the exact
  /// set-cover ILP. An interrupted solve still contributes its incumbent
  /// (any integral incumbent of the cover model is a valid cover); only the
  /// optimality claim is dropped. Borrowed, may be null.
  const RunControl* control = nullptr;
};

struct MinimizeStats {
  int vectors_before = 0;
  int vectors_after = 0;
  bool exact = false;  // true when the ILP proved optimality
  /// LP engine counters from the exact set-cover solve (zero when the
  /// instance went straight to greedy).
  ilp::SolveStats ilp;
};

/// Returns the smallest subset of `suite`'s vectors that keeps fault
/// coverage complete. The input suite must already achieve full coverage.
TestSuite minimize_test_suite(const arch::Biochip& chip,
                              const TestSuite& suite,
                              const MinimizeOptions& options = {},
                              MinimizeStats* stats = nullptr);

}  // namespace mfd::testgen
