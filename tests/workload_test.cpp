// Tests for the FPVA grid-chip model and the parameterized chip/assay
// family generator (src/workload/): spec validation reports every bad
// field, generation is a pure function of the spec (byte-identical
// serialized artifacts on every run), generated chips survive the
// arch/sched text round-trips across the whole size sweep — including the
// largest grid tier — and the batch fault-simulation kernels hold their
// invariants at FPVA fault counts (thousands of faults per chip).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/serialize.hpp"
#include "common/rng.hpp"
#include "sched/serialize.hpp"
#include "sim/batch_fault.hpp"
#include "sim/diagnosis.hpp"
#include "sim/pressure.hpp"
#include "svc/job.hpp"
#include "workload/family.hpp"
#include "workload/fpva.hpp"

namespace mfd::workload {
namespace {

TEST(FpvaSpecTest, LatticeEdgeCount) {
  // (cols-1)*rows + cols*(rows-1): 2x2 -> 4, 3x3 -> 12, 17x17 -> 544.
  EXPECT_EQ(fpva_lattice_edges(2, 2), 4);
  EXPECT_EQ(fpva_lattice_edges(3, 3), 12);
  EXPECT_EQ(fpva_lattice_edges(8, 8), 112);
  EXPECT_EQ(fpva_lattice_edges(17, 17), 544);
  EXPECT_EQ(fpva_lattice_edges(32, 32), 1984);
}

TEST(FpvaSpecTest, DefaultSpecIsValid) {
  EXPECT_TRUE(FpvaSpec{}.validate().ok());
}

TEST(FpvaSpecTest, ListsEveryBadFieldInOneStatus) {
  FpvaSpec spec;
  spec.name = "bad name";
  spec.rows = 1;
  spec.cols = 0;
  spec.ports = 1;
  spec.mixers = -1;
  spec.channel_density = 0.0;
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.outcome, Outcome::kInvalidOptions);
  EXPECT_EQ(status.stage, "fpva_spec");
  EXPECT_NE(status.message.find("whitespace"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("grid"), std::string::npos) << status.message;
  EXPECT_NE(status.message.find("ports"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("mixers"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("channel_density"), std::string::npos)
      << status.message;
}

TEST(FpvaSpecTest, RejectsOvercrowdedInventory) {
  FpvaSpec spec;
  spec.rows = 4;
  spec.cols = 4;
  spec.ports = 13;      // boundary ring has 2*(4+4)-4 = 12 nodes
  spec.mixers = 3;      // interior has (4-2)*(4-2) = 4 nodes
  spec.detectors = 2;
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message.find("ports"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("interior"), std::string::npos)
      << status.message;
}

TEST(FpvaChipTest, FullDensityArrayHasValvesOnEveryLatticeEdge) {
  FpvaSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.ports = 4;
  spec.mixers = 2;
  spec.detectors = 1;
  const arch::Biochip chip = make_fpva_chip(spec);
  std::string why;
  EXPECT_TRUE(chip.validate(&why)) << why;
  EXPECT_EQ(chip.name(), "fpva_8x8");
  EXPECT_EQ(chip.valve_count(), fpva_lattice_edges(8, 8));
  EXPECT_EQ(chip.port_count(), 4);
  EXPECT_EQ(chip.device_count(arch::DeviceKind::kMixer), 2);
  EXPECT_EQ(chip.device_count(arch::DeviceKind::kDetector), 1);
}

TEST(FpvaChipTest, GenerationIsAPureFunctionOfTheSpec) {
  FpvaSpec spec;
  spec.rows = 7;
  spec.cols = 9;
  spec.channel_density = 0.8;
  spec.seed = 99;
  const std::string first = arch::chip_to_string(make_fpva_chip(spec));
  const std::string second = arch::chip_to_string(make_fpva_chip(spec));
  EXPECT_EQ(first, second);

  FpvaSpec reseeded = spec;
  reseeded.seed = 100;
  EXPECT_NE(arch::chip_to_string(make_fpva_chip(reseeded)), first);
}

TEST(FpvaChipTest, ThinnedArrayStaysConnectedAndValid) {
  FpvaSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.channel_density = 0.6;
  spec.seed = 5;
  const arch::Biochip chip = make_fpva_chip(spec);
  std::string why;
  EXPECT_TRUE(chip.validate(&why)) << why;
  const int edges = fpva_lattice_edges(8, 8);
  EXPECT_LT(chip.valve_count(), edges);
  // Thinning never disconnects: at least a spanning tree survives.
  EXPECT_GE(chip.valve_count(), 8 * 8 - 1);
}

// Satellite: generated chips must survive the arch text round-trip across
// a seeded sweep that includes the largest (acceptance-scale) grid tier.
TEST(FpvaChipTest, SerializationRoundTripsAcrossTheSweep) {
  const struct {
    int rows, cols;
    double density;
  } tiers[] = {{5, 5, 1.0}, {8, 8, 0.9}, {12, 12, 1.0}, {17, 17, 1.0}};
  for (const auto& tier : tiers) {
    FpvaSpec spec;
    spec.rows = tier.rows;
    spec.cols = tier.cols;
    spec.channel_density = tier.density;
    spec.ports = 4;
    spec.mixers = 2;
    spec.detectors = 1;
    spec.seed = 2024;
    const arch::Biochip chip = make_fpva_chip(spec);
    const std::string text = arch::chip_to_string(chip);
    const arch::Biochip reread = arch::chip_from_string(text);
    EXPECT_EQ(arch::chip_to_string(reread), text)
        << tier.rows << "x" << tier.cols;
    std::string why;
    EXPECT_TRUE(reread.validate(&why)) << why;
  }
  // The acceptance tier really is at FPVA scale.
  EXPECT_GE(fpva_lattice_edges(17, 17), 500);
}

TEST(FamilySpecTest, JsonRoundTripsEveryField) {
  FamilySpec spec;
  spec.name = "sweep";
  spec.kind = "synthetic";
  spec.count = 7;
  spec.seed = 42;
  spec.rows_min = 5;
  spec.rows_max = 9;
  spec.cols_min = 6;
  spec.cols_max = 10;
  spec.density_min = 0.7;
  spec.density_max = 0.95;
  spec.ports = 3;
  spec.mixers = 2;
  spec.detectors = 2;
  spec.extra_channels = 6;
  spec.assay_ops_min = 4;
  spec.assay_ops_max = 11;
  spec.assay_chain_probability = 0.5;
  spec.assay_detect_fraction = 0.25;
  EXPECT_EQ(FamilySpec::from_json(spec.to_json()), spec);
}

TEST(FamilySpecTest, AbsentFieldsKeepDefaultsAndUnknownFieldsThrow) {
  EXPECT_EQ(FamilySpec::from_json(Json::object()), FamilySpec{});
  Json json = Json::object();
  json.set("typo_field", Json(std::int64_t{1}));
  EXPECT_THROW(FamilySpec::from_json(json), Error);
}

TEST(FamilySpecTest, BoundsTheSeedAtInt64Max) {
  FamilySpec spec;
  spec.seed = svc::kMaxSeed;
  EXPECT_TRUE(spec.validate().ok()) << spec.validate().to_string();
  EXPECT_EQ(FamilySpec::from_json(Json::parse(spec.to_json().dump())), spec);
  spec.seed = std::uint64_t{1} << 63;
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message.find("seed must be at most"), std::string::npos)
      << status.message;
}

TEST(FamilySpecTest, ListsEveryBadFieldInOneStatus) {
  FamilySpec spec;
  spec.name = "has space";
  spec.kind = "quantum";
  spec.count = 0;
  spec.rows_min = 9;
  spec.rows_max = 8;  // inverted sweep
  spec.assay_ops_min = 10;
  spec.assay_ops_max = 5;  // inverted distribution
  const Status status = spec.validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.outcome, Outcome::kInvalidOptions);
  EXPECT_EQ(status.stage, "family_spec");
  EXPECT_NE(status.message.find("whitespace"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("kind"), std::string::npos) << status.message;
  EXPECT_NE(status.message.find("count"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find("rows"), std::string::npos) << status.message;
  EXPECT_NE(status.message.find("assay_ops"), std::string::npos)
      << status.message;
}

TEST(FamilyExpandTest, BadSpecReturnsStatusInsteadOfThrowing) {
  FamilySpec spec;
  spec.count = -3;
  std::vector<FamilyMember> members;
  const Status status = expand_family(spec, &members);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.outcome, Outcome::kInvalidOptions);
}

// Satellite: the same FamilySpec + seed must reproduce byte-identical
// serialized chips AND assays — the determinism the campaign byte-identity
// guarantee stands on.
TEST(FamilyExpandTest, SameSpecYieldsByteIdenticalMembers) {
  FamilySpec spec;
  spec.name = "det";
  spec.kind = "fpva";
  spec.count = 3;
  spec.seed = 77;
  spec.rows_min = 5;
  spec.rows_max = 9;
  spec.cols_min = 5;
  spec.cols_max = 9;
  spec.density_min = 0.8;
  spec.density_max = 1.0;

  std::vector<FamilyMember> first;
  std::vector<FamilyMember> second;
  ASSERT_TRUE(expand_family(spec, &first).ok());
  ASSERT_TRUE(expand_family(spec, &second).ok());
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 3u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].name, second[i].name);
    EXPECT_EQ(arch::chip_to_string(first[i].chip),
              arch::chip_to_string(second[i].chip));
    EXPECT_EQ(sched::assay_to_string(first[i].assay),
              sched::assay_to_string(second[i].assay));
  }
  // Members are decorrelated: distinct chips, distinct names.
  EXPECT_NE(first[0].name, first[1].name);
  EXPECT_NE(arch::chip_to_string(first[0].chip),
            arch::chip_to_string(first[1].chip));
}

TEST(FamilyExpandTest, SweepInterpolatesSizesAndAssaysRoundTrip) {
  FamilySpec spec;
  spec.kind = "fpva";
  spec.count = 3;
  spec.rows_min = 5;
  spec.rows_max = 9;
  spec.cols_min = 5;
  spec.cols_max = 9;
  spec.assay_ops_min = 4;
  spec.assay_ops_max = 8;
  std::vector<FamilyMember> members;
  ASSERT_TRUE(expand_family(spec, &members).ok());
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].grid_width, 5);
  EXPECT_EQ(members[1].grid_width, 7);
  EXPECT_EQ(members[2].grid_width, 9);
  for (const FamilyMember& member : members) {
    EXPECT_EQ(member.valves, member.chip.valve_count());
    const std::string text = sched::assay_to_string(member.assay);
    const sched::Assay reread = sched::assay_from_string(text);
    EXPECT_EQ(sched::assay_to_string(reread), text);
    const int ops = member.assay.operation_count();
    EXPECT_GE(ops, spec.assay_ops_min);
    EXPECT_LE(ops, spec.assay_ops_max);
  }
}

TEST(FamilyExpandTest, SyntheticKindUsesTheArchGenerator) {
  FamilySpec spec;
  spec.kind = "synthetic";
  spec.count = 2;
  spec.rows_min = 4;
  spec.rows_max = 5;
  spec.cols_min = 5;
  spec.cols_max = 6;
  spec.ports = 3;
  spec.mixers = 2;
  spec.detectors = 1;
  spec.extra_channels = 3;
  std::vector<FamilyMember> members;
  ASSERT_TRUE(expand_family(spec, &members).ok());
  ASSERT_EQ(members.size(), 2u);
  for (const FamilyMember& member : members) {
    std::string why;
    EXPECT_TRUE(member.chip.validate(&why)) << why;
    EXPECT_EQ(member.chip.port_count(), 3);
  }
}

// Satellite regression: the packed signature kernel and the diagnosis
// table must hold at FPVA fault counts. A 32x32 full-density array has
// 1984 valves -> 5952 stuck-at+leakage faults (>= 4096), which exercises
// the size guards' happy path; a sampled cross-check against the naive
// oracle pins the bit packing at that scale.
TEST(FpvaScaleTest, SignaturePackingHoldsBeyond4096Faults) {
  FpvaSpec spec;
  spec.rows = 32;
  spec.cols = 32;
  spec.ports = 4;
  spec.mixers = 2;
  spec.detectors = 1;
  const arch::Biochip chip = make_fpva_chip(spec);
  ASSERT_EQ(chip.valve_count(), 1984);
  const std::vector<sim::Fault> faults =
      sim::all_faults(chip, sim::FaultUniverse::kStuckAtAndLeakage);
  ASSERT_GE(faults.size(), 4096u);

  // Hand-rolled vectors (multiport testgen at this scale belongs in
  // perfbench's fpva_campaign, not a unit test).
  Rng rng(321);
  std::vector<sim::TestVector> vectors;
  const sim::PressureSimulator oracle(chip);
  sim::EvaluationContext ctx;
  for (int i = 0; i < 6; ++i) {
    sim::TestVector vec;
    vec.control_open.assign(static_cast<std::size_t>(chip.control_count()),
                            0);
    for (char& c : vec.control_open) c = rng.flip(0.55) ? 1 : 0;
    vec.source = rng.uniform_int(0, chip.port_count() - 1);
    vec.meter = rng.uniform_int(0, chip.port_count() - 1);
    vec.expected_pressure = oracle.measure(vec);
    vectors.push_back(std::move(vec));
  }

  const sim::FaultSignatures sigs =
      sim::compute_signatures(chip, vectors, faults);
  ASSERT_EQ(sigs.fault_count, static_cast<int>(faults.size()));
  // Sampled parity against the naive per-(fault, vector) oracle.
  for (std::size_t fi = 0; fi < faults.size(); fi += 97) {
    for (std::size_t vi = 0; vi < vectors.size(); ++vi) {
      EXPECT_EQ(sigs.detects(static_cast<int>(fi), static_cast<int>(vi)),
                oracle.detects(vectors[vi], faults[fi], ctx))
          << "fault " << fi << ", vector " << vi;
    }
  }

  const sim::DiagnosisTable table = sim::build_diagnosis_table(
      chip, vectors, sim::FaultUniverse::kStuckAtAndLeakage);
  EXPECT_EQ(table.signature_of_fault.size(), faults.size());
  int classed = 0;
  for (const auto& [signature, members] : table.classes) {
    classed += static_cast<int>(members.size());
  }
  EXPECT_EQ(classed, static_cast<int>(faults.size()));
}

}  // namespace
}  // namespace mfd::workload
