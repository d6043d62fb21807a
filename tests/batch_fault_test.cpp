// Differential tests for the batch fault-simulation kernel: on randomized
// synthetic chips and random vectors, BatchFaultSimulator and the packed
// compute_signatures() matrix must be bit-identical to the naive
// PressureSimulator oracle for every fault kind — stuck-at readings at the
// meter and leakage observations at the control port alike. Coverage is
// also checked on the generated suites of the paper chips and two FPVAs.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "arch/chips.hpp"
#include "arch/synthetic.hpp"
#include "common/rng.hpp"
#include "common/run_control.hpp"
#include "sim/batch_fault.hpp"
#include "sim/pressure.hpp"
#include "testgen/vector_gen.hpp"
#include "workload/fpva.hpp"

namespace mfd::sim {
namespace {

arch::Biochip random_chip(int seed, Rng& rng) {
  arch::SyntheticChipSpec spec;
  spec.grid_width = 5 + seed % 3;
  spec.grid_height = 4 + seed % 3;
  spec.ports = 2 + seed % 3;
  spec.mixers = 1 + seed % 2;
  spec.detectors = 1;
  spec.extra_channels = seed % 6;
  return arch::make_synthetic_chip(spec, rng);
}

// Random control assignments with random source/meter ports (occasionally
// equal — the reading is trivially 1 then, a corner both kernels must
// agree on). expected_pressure is sometimes wrong on purpose, so the
// vector_consistent() parity check sees both outcomes.
std::vector<TestVector> random_vectors(const arch::Biochip& chip, int count,
                                       Rng& rng) {
  const PressureSimulator oracle(chip);
  std::vector<TestVector> vectors;
  vectors.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    TestVector vec;
    vec.kind = rng.flip(0.5) ? VectorKind::kPath : VectorKind::kCut;
    vec.control_open.assign(static_cast<std::size_t>(chip.control_count()), 0);
    for (char& c : vec.control_open) c = rng.flip(0.6) ? 1 : 0;
    vec.source = rng.uniform_int(0, chip.port_count() - 1);
    vec.meter = rng.uniform_int(0, chip.port_count() - 1);
    vec.expected_pressure =
        rng.flip(0.8) ? oracle.measure(vec) : rng.flip(0.5);
    vectors.push_back(std::move(vec));
  }
  return vectors;
}

class BatchFaultDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchFaultDifferentialTest, MatchesNaiveOracle) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 9176 + 31);
  const arch::Biochip chip = random_chip(seed, rng);
  const auto vectors = random_vectors(chip, 10, rng);
  const auto faults = all_faults(chip, FaultUniverse::kStuckAtAndLeakage);

  const PressureSimulator oracle(chip);
  EvaluationContext ctx;
  BatchFaultSimulator batch(chip);
  const FaultSignatures sigs = compute_signatures(chip, vectors, faults);
  ASSERT_EQ(sigs.fault_count, static_cast<int>(faults.size()));
  ASSERT_EQ(sigs.vector_count, static_cast<int>(vectors.size()));

  for (std::size_t vi = 0; vi < vectors.size(); ++vi) {
    batch.load(vectors[vi]);
    EXPECT_EQ(batch.reading(), oracle.measure(vectors[vi], std::nullopt, ctx));
    EXPECT_EQ(batch.vector_consistent(),
              oracle.vector_consistent(vectors[vi], ctx));
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      const bool naive = oracle.detects(vectors[vi], faults[fi], ctx);
      EXPECT_EQ(batch.detects(faults[fi]), naive)
          << "chip seed " << seed << ", vector " << vi << ", "
          << to_string(faults[fi]);
      EXPECT_EQ(sigs.detects(static_cast<int>(fi), static_cast<int>(vi)),
                naive)
          << "signature bit: chip seed " << seed << ", vector " << vi << ", "
          << to_string(faults[fi]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Chips, BatchFaultDifferentialTest,
                         ::testing::Range(1, 51));

TEST(BatchFaultTest, LanePackingBeyond64Vectors) {
  Rng rng(4242);
  const arch::Biochip chip = random_chip(3, rng);
  // 130 vectors span three uint64 lanes; every bit must land in the right
  // word and the per-fault any-detection summary must agree with the oracle.
  const auto vectors = random_vectors(chip, 130, rng);
  const auto faults = all_faults(chip, FaultUniverse::kStuckAtAndLeakage);
  const FaultSignatures sigs = compute_signatures(chip, vectors, faults);
  EXPECT_EQ(sigs.words_per_fault(), 3);
  EXPECT_EQ(sigs.bits.size(), faults.size() * 3);

  const PressureSimulator oracle(chip);
  EvaluationContext ctx;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    bool any = false;
    for (std::size_t vi = 0; vi < vectors.size(); ++vi) {
      const bool naive = oracle.detects(vectors[vi], faults[fi], ctx);
      any = any || naive;
      ASSERT_EQ(sigs.detects(static_cast<int>(fi), static_cast<int>(vi)),
                naive)
          << "vector " << vi << ", " << to_string(faults[fi]);
    }
    EXPECT_EQ(sigs.detected(static_cast<int>(fi)), any);
  }
}

TEST(BatchFaultTest, CoverageMatchesNaiveBruteForce) {
  // Random vectors on three random chips, then the multiport suites the
  // DFT flow produces: the three paper chips' and those of the 6x6 and 8x8
  // FPVAs (seed 2024, 4 ports, 2 mixers, 1 detector).
  std::vector<std::pair<arch::Biochip, std::vector<TestVector>>> cases;
  for (int seed : {2, 5, 8}) {
    Rng rng(static_cast<std::uint64_t>(seed) * 677 + 13);
    arch::Biochip chip = random_chip(seed, rng);
    std::vector<TestVector> vectors = random_vectors(chip, 8, rng);
    cases.emplace_back(std::move(chip), std::move(vectors));
  }
  std::vector<arch::Biochip> suite_chips = arch::make_paper_chips();
  for (const int side : {6, 8}) {
    workload::FpvaSpec spec;
    spec.rows = spec.cols = side;
    spec.ports = 4;
    spec.mixers = 2;
    spec.detectors = 1;
    spec.seed = 2024;
    suite_chips.push_back(workload::make_fpva_chip(spec));
  }
  for (arch::Biochip& chip : suite_chips) {
    const auto suite = testgen::generate_test_suite_multiport(chip);
    ASSERT_TRUE(suite.has_value()) << chip.name();
    cases.emplace_back(std::move(chip), suite->vectors);
  }

  for (const auto& [chip, vectors] : cases) {
    for (const FaultUniverse universe :
         {FaultUniverse::kStuckAt, FaultUniverse::kStuckAtAndLeakage}) {
      const CoverageReport report =
          evaluate_coverage(chip, vectors, universe);
      // Brute force with the oracle, preserving all_faults() order.
      const PressureSimulator oracle(chip);
      EvaluationContext ctx;
      std::vector<Fault> undetected;
      int detected = 0;
      for (const Fault& fault : all_faults(chip, universe)) {
        bool hit = false;
        for (const TestVector& vec : vectors) {
          if (oracle.detects(vec, fault, ctx)) {
            hit = true;
            break;
          }
        }
        if (hit) {
          ++detected;
        } else {
          undetected.push_back(fault);
        }
      }
      EXPECT_EQ(report.total_faults,
                static_cast<int>(all_faults(chip, universe).size()))
          << chip.name();
      EXPECT_EQ(report.detected_faults, detected) << chip.name();
      EXPECT_EQ(report.undetected, undetected) << chip.name();
    }
  }
}

TEST(BatchFaultTest, CoverageHonorsStopRequest) {
  Rng rng(77);
  const arch::Biochip chip = random_chip(4, rng);
  const auto vectors = random_vectors(chip, 6, rng);
  RunControl control;
  control.request_cancel();
  const CoverageReport report = evaluate_coverage(
      chip, vectors, FaultUniverse::kStuckAt, &control);
  // Stopped before any vector was processed: everything stays undetected.
  EXPECT_EQ(report.detected_faults, 0);
  EXPECT_EQ(static_cast<int>(report.undetected.size()), report.total_faults);
}

TEST(BatchFaultTest, DetectsRequiresLoadedVector) {
  Rng rng(5);
  const arch::Biochip chip = random_chip(1, rng);
  BatchFaultSimulator batch(chip);
  EXPECT_THROW((void)batch.detects(Fault{0, FaultKind::kStuckAt0}), Error);
}

}  // namespace
}  // namespace mfd::sim
