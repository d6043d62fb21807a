#include "workload/family.hpp"

#include <cmath>
#include <utility>

#include "arch/synthetic.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "sched/synthetic.hpp"
#include "svc/job.hpp"
#include "workload/fpva.hpp"

namespace mfd::workload {

namespace {

bool has_whitespace(const std::string& text) {
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return true;
  }
  return false;
}

/// Sweep position of member i: 0 at the min end, 1 at the max end; a
/// single-member family sits at the min end.
double sweep_t(const FamilySpec& spec, int index) {
  if (spec.count <= 1) return 0.0;
  return static_cast<double>(index) / (spec.count - 1);
}

int interpolate_int(int lo, int hi, double t) {
  return lo + static_cast<int>(std::llround(t * (hi - lo)));
}

/// Per-member seed: mixed from the family seed and the member index so
/// members are decorrelated and inserting a member never reshuffles the
/// others.
std::uint64_t member_seed(const FamilySpec& spec, int index) {
  return splitmix64(spec.seed ^
                    splitmix64(0x66616d696c795f5full +
                               static_cast<std::uint64_t>(index)));
}

FpvaSpec member_fpva_spec(const FamilySpec& spec, int index,
                          const std::string& name) {
  const double t = sweep_t(spec, index);
  FpvaSpec chip_spec;
  chip_spec.name = name;
  chip_spec.rows = interpolate_int(spec.rows_min, spec.rows_max, t);
  chip_spec.cols = interpolate_int(spec.cols_min, spec.cols_max, t);
  chip_spec.ports = spec.ports;
  chip_spec.mixers = spec.mixers;
  chip_spec.detectors = spec.detectors;
  chip_spec.channel_density =
      spec.density_min + t * (spec.density_max - spec.density_min);
  chip_spec.seed = member_seed(spec, index);
  return chip_spec;
}

arch::SyntheticChipSpec member_synthetic_spec(const FamilySpec& spec,
                                              int index) {
  const double t = sweep_t(spec, index);
  arch::SyntheticChipSpec chip_spec;
  chip_spec.grid_width = interpolate_int(spec.cols_min, spec.cols_max, t);
  chip_spec.grid_height = interpolate_int(spec.rows_min, spec.rows_max, t);
  chip_spec.ports = spec.ports;
  chip_spec.mixers = spec.mixers;
  chip_spec.detectors = spec.detectors;
  chip_spec.extra_channels = spec.extra_channels;
  return chip_spec;
}

std::string member_name(const FamilySpec& spec, int index) {
  const double t = sweep_t(spec, index);
  const int rows = interpolate_int(spec.rows_min, spec.rows_max, t);
  const int cols = interpolate_int(spec.cols_min, spec.cols_max, t);
  return spec.name + "_" + std::to_string(index) + "_" +
         std::to_string(cols) + "x" + std::to_string(rows);
}

}  // namespace

Status FamilySpec::validate() const {
  Problems problems;
  problems.flag(name.empty(), "name must not be empty");
  problems.flag(has_whitespace(name), "name must not contain whitespace");
  problems.flag(kind != "fpva" && kind != "synthetic",
                "kind must be 'fpva' or 'synthetic'");
  problems.flag(count < 1, "count must be >= 1");
  problems.flag(seed > svc::kMaxSeed,
                "seed must be at most " + std::to_string(svc::kMaxSeed));
  problems.flag(rows_min > rows_max, "rows_min must be <= rows_max");
  problems.flag(cols_min > cols_max, "cols_min must be <= cols_max");
  problems.flag(density_min > density_max,
                "density_min must be <= density_max");
  problems.flag(assay_ops_min < 1, "assay_ops_min must be >= 1");
  problems.flag(assay_ops_min > assay_ops_max,
                "assay_ops_min must be <= assay_ops_max");
  problems.flag(assay_chain_probability < 0.0 || assay_chain_probability > 1.0,
                "assay_chain_probability must be in [0, 1]");
  problems.flag(assay_detect_fraction < 0.0 || assay_detect_fraction > 1.0,
                "assay_detect_fraction must be in [0, 1]");
  // The size sweep is monotone between its ends, so checking the two end
  // members' chip specs covers every intermediate one.
  if (problems.message.empty()) {
    for (const int index : {0, count - 1}) {
      Status end_status;
      if (kind == "fpva") {
        end_status = member_fpva_spec(*this, index,
                                      member_name(*this, index)).validate();
      } else {
        end_status = member_synthetic_spec(*this, index).validate();
      }
      problems.flag(!end_status.ok(), "member " + std::to_string(index) +
                                          ": " + end_status.message);
      if (count == 1) break;
    }
  }
  return problems.status("family_spec");
}

Json FamilySpec::to_json() const {
  Json out = Json::object();
  out.set("name", Json(name));
  out.set("kind", Json(kind));
  out.set("count", Json(std::int64_t{count}));
  out.set("seed", Json(static_cast<std::int64_t>(seed)));
  out.set("rows_min", Json(std::int64_t{rows_min}));
  out.set("rows_max", Json(std::int64_t{rows_max}));
  out.set("cols_min", Json(std::int64_t{cols_min}));
  out.set("cols_max", Json(std::int64_t{cols_max}));
  out.set("density_min", Json(density_min));
  out.set("density_max", Json(density_max));
  out.set("ports", Json(std::int64_t{ports}));
  out.set("mixers", Json(std::int64_t{mixers}));
  out.set("detectors", Json(std::int64_t{detectors}));
  out.set("extra_channels", Json(std::int64_t{extra_channels}));
  out.set("assay_ops_min", Json(std::int64_t{assay_ops_min}));
  out.set("assay_ops_max", Json(std::int64_t{assay_ops_max}));
  out.set("assay_chain_probability", Json(assay_chain_probability));
  out.set("assay_detect_fraction", Json(assay_detect_fraction));
  return out;
}

FamilySpec FamilySpec::from_json(const Json& json) {
  ObjectReader reader(json, "FamilySpec");
  FamilySpec spec;
  reader.read("name", spec.name);
  reader.read("kind", spec.kind);
  reader.read("count", spec.count);
  reader.read("seed", spec.seed);
  reader.read("rows_min", spec.rows_min);
  reader.read("rows_max", spec.rows_max);
  reader.read("cols_min", spec.cols_min);
  reader.read("cols_max", spec.cols_max);
  reader.read("density_min", spec.density_min);
  reader.read("density_max", spec.density_max);
  reader.read("ports", spec.ports);
  reader.read("mixers", spec.mixers);
  reader.read("detectors", spec.detectors);
  reader.read("extra_channels", spec.extra_channels);
  reader.read("assay_ops_min", spec.assay_ops_min);
  reader.read("assay_ops_max", spec.assay_ops_max);
  reader.read("assay_chain_probability", spec.assay_chain_probability);
  reader.read("assay_detect_fraction", spec.assay_detect_fraction);
  reader.reject_unread();
  return spec;
}

Status expand_family(const FamilySpec& spec, std::vector<FamilyMember>* out) {
  MFD_REQUIRE(out != nullptr, "expand_family(): out must not be null");
  const Status status = spec.validate();
  if (!status.ok()) return status;
  out->clear();
  out->reserve(static_cast<std::size_t>(spec.count));
  for (int index = 0; index < spec.count; ++index) {
    const std::string name = member_name(spec, index);
    const std::uint64_t seed = member_seed(spec, index);

    arch::Biochip chip = [&] {
      if (spec.kind == "fpva") {
        return make_fpva_chip(member_fpva_spec(spec, index, name));
      }
      Rng chip_rng(seed);
      return arch::make_synthetic_chip(member_synthetic_spec(spec, index),
                                       chip_rng);
    }();

    // The assay stream is independent of the chip stream: changing chip
    // knobs never reshapes the member's assay.
    Rng assay_rng(splitmix64(seed ^ 0x6173736179737571ull));
    sched::SyntheticAssaySpec assay_spec;
    assay_spec.operations =
        assay_rng.uniform_int(spec.assay_ops_min, spec.assay_ops_max);
    assay_spec.chain_probability = spec.assay_chain_probability;
    assay_spec.detect_fraction = spec.assay_detect_fraction;
    sched::Assay assay = sched::make_synthetic_assay(assay_spec, assay_rng);

    FamilyMember member{name, std::move(chip), std::move(assay), 0, 0, 0};
    member.grid_width = member.chip.grid().width();
    member.grid_height = member.chip.grid().height();
    member.valves = member.chip.valve_count();
    out->push_back(std::move(member));
  }
  return Status::Ok();
}

}  // namespace mfd::workload
