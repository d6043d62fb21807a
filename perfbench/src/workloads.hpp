// The three perfbench workloads. Each runs in its own process; with
// args.trace false it reports the end-to-end metrics, with args.trace true
// the per-layer metrics (see README.md for both lists).
#pragma once

#include "bench.hpp"

namespace perfbench {

Report run_table1(const Args& args);
Report run_fpva_campaign(const Args& args);
Report run_daemon(const Args& args);

}  // namespace perfbench
