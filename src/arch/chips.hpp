// Benchmark chip library.
//
// The paper evaluates on the IVD and RA30 chips from [6] (Liu et al., DAC'17)
// and the mRNA-isolation chip from [21] (Marcus et al., Anal. Chem. 2006).
// The original netlists are not published; these are reconstructions that
// match the published device inventory, valve count and port structure, which
// is all the DFT flow consumes (see DESIGN.md, "Substitutions").
#pragma once

#include "arch/biochip.hpp"

namespace mfd::arch {

/// IVD chip: 3 mixers, 2 detectors, 12 valves, 3 ports on a 5x4 grid.
Biochip make_ivd_chip();

/// RA30 chip: 2 mixers, 3 detectors, 16 valves, 3 ports on a 6x4 grid.
Biochip make_ra30_chip();

/// mRNA-isolation chip: 3 mixers, 1 detector, 28 valves, 4 ports on a
/// 7x5 grid.
Biochip make_mrna_chip();

/// The three-port, six-valve illustration chip of Figure 4(a); used in unit
/// tests and the quickstart example.
Biochip make_figure4_chip();

/// All paper benchmark chips (IVD, RA30, mRNA) in evaluation order.
std::vector<Biochip> make_paper_chips();

/// A chip a job spec may name, with its builder.
struct NamedChip {
  const char* name;
  Biochip (*make)();
};

/// Every chip a job spec may name, in the order messages list them.
inline constexpr NamedChip kNamedChips[] = {
    {"IVD_chip", make_ivd_chip}, {"RA30_chip", make_ra30_chip},
    {"mRNA_chip", make_mrna_chip}, {"figure4_chip", make_figure4_chip}};

}  // namespace mfd::arch
