// The four workloads and the per-layer helpers they share.
//
// A workload builds its inputs in setup() (timed as setup_s) and then
// measures in run(): with a null tracer that is the end-to-end run;
// with a tracer it records spans around every public call and fills
// the per-layer metrics.  probes() runs the traced run's per-call layer
// probes on the answers the measured phase produced.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "solver/solver.hpp"

namespace perfbench {

struct Metric_spec {
    const char* name;
    const char* unit;
};

/// End-to-end metrics, printed by every untraced run.
extern const std::vector<Metric_spec> k_end_to_end;
/// Per-layer metrics, printed by every traced run (0 = layer idle).
extern const std::vector<Metric_spec> k_per_layer;

class Workload {
public:
    virtual ~Workload() = default;
    virtual void setup() = 0;
    virtual Phase_result run(double seconds, Tracer* tracer) = 0;
    virtual void probes(Phase_result& out, Tracer* tracer) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
std::vector<std::string> workload_names();

std::unique_ptr<Workload> make_design_sweep(std::uint64_t seed);
std::unique_ptr<Workload> make_two_asic(std::uint64_t seed, bool distributed);
std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed);

// --- shared per-layer plumbing -------------------------------------------

/// Sums of the counters a Solve_result carries, over a phase.
struct Solve_counters {
    long long solves = 0;
    long long evaluated = 0, pruned = 0, space = 0;
    long long hits = 0, misses = 0, evictions = 0;
    long long rows_swept = 0, rows_reused = 0, rows_cross = 0;
    long long states_swept = 0, cells_dense = 0;
    long long rows_visited = 0, rows_pruned = 0;
    long long pairs = 0, pairs_evaluated = 0;

    void add(const lycos::solver::Solve_result& r);
    /// search.*, eval_cache.*, pace.rows_*, pace_multi.states_swept /
    /// occupancy, solver.rows_pruned_frac / pairs_scored_frac.
    void report(Metrics& layers) const;
};

/// Closed-loop rates over a fixed item pool, each visited item weighed
/// once at its median operation time — so a run that ends mid-pass
/// does not over-weigh whatever it happened to visit last.
struct Pool_rates {
    double items_per_s = 0.0;   ///< visited items / sum of medians
    double work_per_s = 0.0;    ///< sum of item work / sum of medians
    double on_time_per_s = 0.0; ///< items with a correct answer and a
                                ///< median within the limit, per second
};
/// `item[i]` is the pool index of operation i, `op_ms[i]` its latency,
/// `ok[i]` whether it was answered correctly; `work[item]` its work.
Pool_rates pool_rates(const std::vector<std::size_t>& item,
                      const std::vector<double>& op_ms,
                      const std::vector<bool>& ok,
                      const std::vector<double>& work, double limit_ms);

/// Percentile q of `ms` with every pool item weighed equally: sample i
/// weighs 1 / (samples of item[i]), so a partial last pass does not
/// shift the percentile toward whatever it visited.
double pool_percentile(const std::vector<std::size_t>& item,
                       const std::vector<double>& ms, double q);

/// Mean microseconds per call of `fn` (which returns the calls it made)
/// over at least `min_ms` of repeated calls.
template <typename Fn>
double time_us(Fn&& fn, double min_ms = 20.0)
{
    long long calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
        calls += fn();
        elapsed = ms_between(t0, Clock::now());
    } while (elapsed < min_ms);
    return calls > 0 ? 1000.0 * elapsed / static_cast<double>(calls) : 0.0;
}

/// A solved problem kept for the layer probes.
struct Probe_sample {
    lycos::solver::Problem problem;
    std::vector<lycos::core::Rmap> datapaths;  ///< 1 (single) or 2 (pair)
};

/// sched.list_schedule_us and pace.partition_us (single-ASIC samples),
/// pace_multi.partition_us (two-ASIC samples).
void probe_kernels(const std::vector<Probe_sample>& samples, Metrics& layers,
                   Tracer* tracer);

/// solver.thread_scaling: wall time of `strategy` on `problem` at one
/// thread over the same solve at `n_threads`, fresh sessions, best of 2.
double thread_scaling(const lycos::solver::Problem& problem,
                      const std::string& strategy, int n_threads);

/// Threads per solve for the closed-loop workloads: nproc capped at 4.
int solve_threads();

// --- open-loop generator (serve_mix) ---------------------------------------

/// A run whose generator's p99 lag exceeds this is reported invalid.
inline constexpr double k_max_lag_ms = 25.0;

/// Call `submit(i)` for every arrival at `start` + its due time, from
/// the calling thread; returns how late each call started (ms).
std::vector<double> drive_open_loop(
    const std::vector<Arrival>& schedule, Clock::time_point start,
    const std::function<void(std::size_t)>& submit);

bool generator_fell_behind(const std::vector<double>& lags);

}  // namespace perfbench
