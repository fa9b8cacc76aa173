// Per-layer metrics: the traced run.
//
// A single-process replay of the workload's per-CPI work at its node
// decomposition, with a span around every call into a module's public
// functions (pfs reads and writes, stap kernels, mp transfers, the
// collective read), plus traced and untraced ThreadRunner runs for the
// program's own phase histograms, I/O statistics, per-CPI trace latency
// and the tracing overhead.
#pragma once

#include "harness.hpp"
#include "report.hpp"

namespace perfbench {

/// Fill `report` with every per-layer metric of ctx's workload (or its n/a
/// reason). Detection checks add to `attempted` / `failed`.
void measure_layers(Context& ctx, Report& report, int& attempted, int& failed);

}  // namespace perfbench
