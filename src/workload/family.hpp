// Parameterized chip/assay family generation.
//
// A FamilySpec describes a *sweep* of chips plus matched synthetic assays:
// member i of `count` interpolates the grid size and channel density
// between the spec's min and max ends, and draws its assay shape from the
// spec's distributions. Generation is a pure function of the spec — every
// member's chip and assay derive their seeds from (spec.seed, index) via
// splitmix64, so the same spec yields byte-identical serialized members on
// every run, machine, and process. This generalizes
// arch::make_synthetic_chip (kind "synthetic") and adds the FPVA scale
// workload (kind "fpva"); campaigns (workload/campaign.hpp) expand families
// into svc::JobSpec batches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/biochip.hpp"
#include "common/json.hpp"
#include "common/status.hpp"
#include "sched/assay.hpp"

namespace mfd::workload {

struct FamilySpec {
  /// Family name, prefixed onto member names; no whitespace.
  std::string name = "family";
  /// Chip generator: "fpva" (workload/fpva.hpp) or "synthetic"
  /// (arch/synthetic.hpp).
  std::string kind = "fpva";
  /// Number of members; sizes interpolate from min to max across them.
  int count = 4;
  /// At most svc::kMaxSeed.
  std::uint64_t seed = 1;

  /// Grid size sweep (rows x cols lattice nodes). Member i uses the
  /// linear interpolation at t = i/(count-1) (a single member sits at the
  /// min end).
  int rows_min = 8;
  int rows_max = 12;
  int cols_min = 8;
  int cols_max = 12;
  /// Channel density sweep, (0, 1]; only "fpva" uses it.
  double density_min = 1.0;
  double density_max = 1.0;

  /// Fixed per-member inventory.
  int ports = 4;
  int mixers = 1;
  int detectors = 1;
  /// Loop channels beyond the connecting tree; only "synthetic" uses it.
  int extra_channels = 4;

  /// Assay shape distribution (sched::make_synthetic_assay): operation
  /// count drawn uniformly from [assay_ops_min, assay_ops_max], chain
  /// probability controls depth, detect fraction controls width.
  int assay_ops_min = 8;
  int assay_ops_max = 16;
  double assay_chain_probability = 0.7;
  double assay_detect_fraction = 0.4;

  /// Checks every field and reports all violations in one Status (stage
  /// "family_spec", outcome kInvalidOptions), including per-member chip
  /// spec validity at both sweep ends.
  [[nodiscard]] Status validate() const;

  /// JSON object with every field (defaults included), deterministic order.
  [[nodiscard]] Json to_json() const;

  /// Inverse of to_json(); absent fields keep their defaults. An unknown
  /// field, a type mismatch or an integer out of its field's range throws
  /// mfd::Error naming the field.
  static FamilySpec from_json(const Json& json);

  [[nodiscard]] bool operator==(const FamilySpec&) const = default;
};

/// One generated member: a chip, its matched assay, and the metadata a
/// campaign report carries per chip.
struct FamilyMember {
  std::string name;
  arch::Biochip chip;
  sched::Assay assay;
  int grid_width = 0;
  int grid_height = 0;
  int valves = 0;
};

/// Expands the family into its members, in index order. Returns
/// kInvalidOptions (with every problem listed) instead of throwing when the
/// spec is bad; on success `out` holds exactly spec.count members.
[[nodiscard]] Status expand_family(const FamilySpec& spec,
                                   std::vector<FamilyMember>* out);

}  // namespace mfd::workload
