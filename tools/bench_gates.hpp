// The `lycos_cli --bench-json` gate suite behind BENCH_search.json.
//
// One shared synthetic scenario drives an ordered list of sections:
// the search variants, the two-ASIC DP, the solver strategies, the
// deadline poll overhead, the serving layer, request batching, the
// distributed search and the SIMD kernels.  Each section returns its
// JSON object (carrying its own `ok`), one summary line and its
// verdict, and owns the threshold it gates on; docs/performance.md
// ("Bench methodology") lists every section, gate and threshold.
#pragma once

#include <iosfwd>
#include <string>

namespace lycos::gates {

/// Run every section, print one summary line per section to `log`,
/// write the JSON report to `path`, and name each failed section on
/// `err`.  Returns 0 only if the report was written and every section
/// passed; failures are reported, never thrown.
int write_bench_report(const std::string& path, std::ostream& log,
                       std::ostream& err);

}  // namespace lycos::gates
