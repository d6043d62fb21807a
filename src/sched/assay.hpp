// Bioassay model: sequencing graphs of fluidic operations (Figure 2).
//
// An assay is a DAG whose nodes are operations (mix, detect) with durations
// and whose arcs are data dependencies: the result of the predecessor is an
// input fluid of the successor. Mix operations combine two fluids; inputs
// not supplied by predecessors are fetched as fresh reagents from a chip
// port. The three paper benchmarks (IVD 12 op., PID 38 op., CPA 55 op.) are
// reconstructions with literature-typical structure; see DESIGN.md.
#pragma once

#include <string>
#include <vector>

#include "arch/biochip.hpp"
#include "graph/dag.hpp"

namespace mfd::sched {

using OpId = graph::NodeId;

enum class OpKind { kMix, kDetect };

[[nodiscard]] const char* to_string(OpKind kind);

struct Operation {
  OpKind kind = OpKind::kMix;
  double duration = 0.0;
  std::string name;
};

/// A sequencing graph G = (O, E).
class Assay {
 public:
  explicit Assay(std::string name) : name_(std::move(name)) {}

  OpId add_operation(OpKind kind, double duration, std::string name = {});

  /// Declares that `from`'s result is an input of `to`.
  void add_dependency(OpId from, OpId to);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int operation_count() const {
    return static_cast<int>(operations_.size());
  }
  [[nodiscard]] const Operation& operation(OpId op) const;
  [[nodiscard]] const std::vector<Operation>& operations() const {
    return operations_;
  }
  [[nodiscard]] const graph::Digraph& dag() const { return dag_; }

  /// Number of fluid inputs an operation consumes: mixes take two, detects
  /// one. Inputs not covered by predecessors are fresh reagents from ports.
  [[nodiscard]] int input_count(OpId op) const;

  /// Fresh-reagent fetches required by the operation (inputs minus
  /// predecessor results; never negative).
  [[nodiscard]] int reagent_count(OpId op) const;

  /// The device kind that can execute an operation kind.
  [[nodiscard]] static arch::DeviceKind required_device(OpKind kind);

  /// True when the graph is acyclic and every op's predecessor count does
  /// not exceed its input count.
  [[nodiscard]] bool validate(std::string* why = nullptr) const;

  /// Sum of operation durations (a lower bound on serial execution).
  [[nodiscard]] double total_work() const;

 private:
  std::string name_;
  std::vector<Operation> operations_;
  graph::Digraph dag_;
};

/// IVD, 12 operations: three samples x two reagents, six independent
/// mix -> detect chains (in-vitro diagnostics).
Assay make_ivd_assay();

/// PID, 38 operations: a 19-stage interpolation dilution chain; every stage
/// mixes the previous dilution with fresh buffer and detects the result.
Assay make_pid_assay();

/// CPA, 55 operations: a depth-4 binary dilution tree (15 mixes) feeding 8
/// reagent mixes, each read out with 4 sequential detections (kinetic
/// colorimetric reads): 23 mixes + 32 detects.
Assay make_cpa_assay();

/// All paper assays (IVD, PID, CPA) in evaluation order.
std::vector<Assay> make_paper_assays();

/// An assay a job spec may name, with its builder.
struct NamedAssay {
  const char* name;
  Assay (*make)();
};

/// Every assay a job spec may name, in the order messages list them.
inline constexpr NamedAssay kNamedAssays[] = {{"IVD", make_ivd_assay},
                                              {"PID", make_pid_assay},
                                              {"CPA", make_cpa_assay}};

/// Default operation durations used by the paper benchmarks (seconds).
inline constexpr double kMixDuration = 50.0;
inline constexpr double kDetectDuration = 40.0;

}  // namespace mfd::sched
