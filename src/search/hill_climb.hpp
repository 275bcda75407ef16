// Iterated hill climbing over the allocation space.
//
// The eigen example's space (~10^6 allocations, each costing a PACE
// run) made exhaustive evaluation impossible for the paper (footnote
// 1: the best allocation was the best found "using numerous
// experiments").  This search plays that role reproducibly: steepest-
// ascent hill climbing on the +-1-unit neighbourhood, restarted from
// random points of the space.
//
// The climb adopted the exhaustive walker's cheap-evaluation tricks:
// every candidate is scored with the *value-only* screening DP
// (pace_best_saving — no traceback bookkeeping), steps and the
// per-restart best are chosen on the screened (time, area) tuple, and
// only each restart's final winner pays for one full partition
// reconstruction.  Neighbours additionally pass through admissible
// *proxy-cost* screening (Hill_climb_options::use_proxy_screen):
// projections already memoized come straight from Eval_cache::find_one,
// the rest are stood in for by optimistic costs, and only neighbours
// the proxy cannot rule out pay for real schedules — same trick the
// branch-and-bound walker plays at its leaves, now on the climb's
// neighbourhood loop.  With an explicit search quantum the DP table width
// is additionally pinned to the total ASIC area
// (Eval_context::dp_table_budget), so the per-worker Pace_workspace
// checkpoint stays valid across the +-1 neighbourhood — neighbouring
// candidates share long cost prefixes, exactly the access pattern the
// incremental DP feeds on.  The screened time equals the full
// partition's up to float summation order, so the climb's trajectory
// is unchanged except on ties at that noise level.
//
// Restarts are independent, so they run in parallel on a
// util::Thread_pool.  Determinism contract: every start point is
// drawn from `rng` in restart order *before* any climbing, each
// restart climbs in isolation (per-worker Eval_cache and
// Pace_workspace), and per-restart bests are reduced in restart order
// with the same strict comparison — so the result is bit-identical
// to the sequential climb for any thread count.
#pragma once

#include "search/exhaustive.hpp"
#include "util/rng.hpp"

namespace lycos::search {

/// Options for the hill-climb engine.
struct Hill_climb_options {
    int n_restarts = 16;       ///< climbs: restart 0 starts from the empty
                               ///< allocation, the rest from random points
    int max_steps = 256;       ///< safety bound per climb
    int n_threads = 0;         ///< 0 = hardware concurrency (capped by restarts)

    /// Screen neighbours through admissible proxy costs first
    /// (search/proxy_cost.hpp): a neighbour whose projections are all
    /// memoized screens exactly straight from the cache; otherwise
    /// the value DP runs over optimistic stand-in costs, and only
    /// when that *proxy* tuple still beats the current point does the
    /// neighbour pay for real schedules and the exact screen.  Since
    /// the proxy time lower-bounds the exact screened time, skipped
    /// neighbours could never have been stepped to nor have improved
    /// the restart best — the climb trajectory and the final tuple
    /// are bit-identical with the screen on or off (skips land in
    /// Search_result::n_pruned).  Auto-disabled under a storage model
    /// (no sound proxy exists; see Proxy_cost_model::sound).
    bool use_proxy_screen = true;

    /// Entry cap for each worker's private Eval_cache (0 = unbounded;
    /// bounded caches evict segment-wise with bit-identical results —
    /// see Exhaustive_options::cache_capacity).
    std::size_t cache_capacity = 0;

    /// Optional caller-owned cache shared with other search phases
    /// (worker 0 uses it; see Exhaustive_options::shared_cache).
    Eval_cache* shared_cache = nullptr;

    /// Shared immutable frames/invariants for the per-worker caches
    /// (see Exhaustive_options::invariants).
    std::shared_ptr<const Eval_invariants> invariants;

    /// Caller-owned thread pool (see Exhaustive_options::pool).
    util::Thread_pool* pool = nullptr;

    /// Session-persistent per-worker DP workspaces (see
    /// Exhaustive_options::dp_pool): worker c screens on slot c, so
    /// the value-DP checkpoints survive between solves and a repeat
    /// climb of the same problem resumes at the first divergent cost
    /// row (bit-identical results; the cross-solve share lands in
    /// Search_result::dp_rows_reused_cross_request).
    Dp_workspace_pool* dp_pool = nullptr;

    /// Optional cancellation handle.  The logical work unit is the
    /// restart index: the injected cut climbs exactly the restarts
    /// below it, so truncated results are bit-identical for any thread
    /// count.  Live conditions additionally poll once per climb step
    /// and keep the partial restart's best.
    const util::Cancel_token* cancel = nullptr;
};

/// Best allocation found by iterated steepest-ascent hill climbing.
/// Deterministic for a given `rng` seed, independent of n_threads.
/// Search_result::n_evaluated counts screened candidates (each was
/// scored by the value-only DP; only restart winners additionally run
/// the full partition).
///
/// This is the engine behind the solver's `hill_climb` strategy;
/// prefer driving it through a solver::Session.
Search_result hill_climb_engine(const Eval_context& ctx,
                                const core::Rmap& restrictions,
                                const Hill_climb_options& options,
                                util::Rng& rng);

}  // namespace lycos::search
