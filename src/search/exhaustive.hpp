// Exhaustive allocation search (the §5 methodology for "the best
// allocation"), run as a deterministic branch-and-bound.
//
// The search is chunk-parallel: the mixed-radix index range
// [0, Alloc_space::size()) is split into one contiguous chunk per
// worker thread, each worker walks its chunk as a mixed-radix *tree*
// (digits assigned most-significant first, so subtrees are contiguous
// index ranges) with a private Eval_cache and Pace_workspace, and the
// per-chunk bests are reduced in chunk order.  Three admissible prunes
// skip work without ever changing the best tuple:
//   * area-monotone subtrees: a digit prefix whose data-path area
//     already exceeds the ASIC kills the whole subtree (digits only
//     add area) — those points would have been enumerated but never
//     evaluated anyway,
//   * gain-bounded subtrees: an allocation-independent lower bound on
//     the hybrid time (ASAP-length hardware times, coverage of the
//     subtree's maximal completion) proves no completion can beat the
//     worker's incumbent,
//   * per-point DP savings: cached leaves run the value-only
//     screening DP (pace_best_saving) and only pay the traceback
//     reconstruction when the screened time can still beat the
//     incumbent (screened points count as n_evaluated — they were
//     scored); on the uncached path, pace::max_gain bounds the
//     achievable saving and candidates that cannot beat the incumbent
//     skip the PACE DP entirely (counted in n_pruned).
// The interior gain bound is additionally conditioned on the digit
// prefix already assigned: per op kind, the instance capacity any
// completion can still reach (assigned digits exactly, open dims at
// their bound) yields a work/capacity floor on every BSB's schedule
// length, tightening the coverage bound as digits shrink below their
// bounds.  DP leaf evaluations run *incrementally*: each worker's
// Pace_workspace checkpoints the DP rows of its last evaluation, the
// leaves arrive in tree order (long shared cost prefixes), and the
// table width is pinned to the total ASIC area
// (Eval_context::dp_table_budget) so rows stay valid across leaves
// with different leftover budgets — the sweep restarts at the first
// BSB whose cost actually changed (Search_result::dp_rows_reused).
// Because every prune removes only provably-worse points and the
// reduction applies the same strict better_than the sequential loop
// used (keep the incumbent on ties), the best tuple is bit-identical
// to the unpruned single-threaded search for any thread count.
#pragma once

#include <memory>

#include "search/alloc_space.hpp"
#include "search/eval_cache.hpp"
#include "search/evaluate.hpp"
#include "util/cancel.hpp"
#include "util/chunk_range.hpp"

namespace lycos::util {
class Thread_pool;
}

namespace lycos::search {

class Dp_workspace_pool;

/// Outcome of a search over the allocation space.
struct Search_result {
    Evaluation best;           ///< best-scoring allocation found
    /// True once any point was fully evaluated (best is meaningful).
    /// A full-space run always finds one (the empty allocation fits);
    /// a windowed run over a region whose every leaf was screened or
    /// infeasible legitimately ends without a best.
    bool have_best = false;
    long long n_evaluated = 0; ///< allocations fully scored (PACE ran)
    long long n_pruned = 0;    ///< points skipped by branch-and-bound
                               ///< (area-monotone subtrees, gain-bounded
                               ///< subtrees, and per-point DP skips);
                               ///< n_evaluated + n_pruned covers the
                               ///< whole space when pruning is on
    long long space_size = 0;  ///< size of the full space
    double seconds = 0.0;      ///< wall-clock time spent
    int n_threads = 1;         ///< worker threads used
    Eval_cache_stats cache_stats;  ///< aggregated over all worker caches

    /// Incremental-DP observability, aggregated over the per-worker
    /// Pace_workspaces: rows served from the checkpoint vs. rows
    /// actually swept (see Pace_workspace).  Like n_evaluated these
    /// depend on chunking; the best tuple never does.
    long long dp_rows_reused = 0;
    long long dp_rows_swept = 0;
    /// The share of dp_rows_reused resumed from checkpoints written by
    /// an *earlier* solve on the same Dp_workspace_pool slots (0
    /// without Exhaustive_options::dp_pool) — the cross-request
    /// warm-start counter serve::Server batching reports.
    long long dp_rows_reused_cross_request = 0;

    /// Prunes attributable to Exhaustive_options::incumbent_bound: the
    /// external bound was strictly tighter than the local threshold at
    /// the kill site and the kill would not have happened without it —
    /// the distributed search's "bounds-kills after remote updates"
    /// stat.  0 when no external bound is armed.
    long long n_pruned_remote = 0;

    /// Anytime-solve outcome: complete for a full-space run, else the
    /// condition that tripped the cancel token (the best tuple is then
    /// the best of the explored prefix).  Under the injected cut the
    /// explored prefix is exactly the units below the cut, so the
    /// truncated best tuple is bit-identical for any thread count; the
    /// abandonment counters — like n_evaluated — depend on chunking.
    util::Solve_status status = util::Solve_status::complete;
    long long chunks_abandoned = 0;  ///< chunk tasks stopped or skipped
    long long rows_abandoned = 0;    ///< finer units refused (subtrees,
                                     ///< restarts, rows — per engine)
};

/// Knobs for exhaustive_engine; the defaults are the fast path.
struct Exhaustive_options {
    int n_threads = 0;      ///< 0 = hardware concurrency
    bool use_cache = true;  ///< memoize per-BSB scheduling (bit-identical)
    bool use_pruning = true;  ///< branch-and-bound (bit-identical best;
                              ///< n_evaluated depends on chunking)

    /// Entry cap for each worker's private Eval_cache (0 = unbounded).
    /// Bounded caches evict segment-wise (see Eval_cache) so large
    /// restriction spaces cannot pressure memory; results are
    /// bit-identical for any capacity.  A caller-owned shared_cache
    /// keeps whatever capacity it was built with.
    std::size_t cache_capacity = 0;

    /// Optional caller-owned cache, shared with other search phases
    /// (e.g. the fine re-score after a coarse search).  Worker 0 uses
    /// it instead of a private cache — the memo is single-threaded,
    /// see the eval_cache.hpp header note; its context must match
    /// `ctx` in everything but area_quantum and dp_table_budget
    /// (neither affects the memoized schedules).  The cache's
    /// contribution still shows up in Search_result::cache_stats.
    Eval_cache* shared_cache = nullptr;

    /// Precomputed immutable frames/invariants for every worker cache
    /// (including the ones built privately by workers 1..n-1), so the
    /// per-worker O(app) setup runs once per problem instead of once
    /// per worker.  Null: each private cache computes its own.  A
    /// solver::Session always fills this in; results are unaffected
    /// either way.
    std::shared_ptr<const Eval_invariants> invariants;

    /// Run the chunks on this caller-owned pool instead of spawning a
    /// fresh one per call (the pool's thread count need not match
    /// n_threads — chunks are queued tasks).  A solver::Session owns
    /// one pool and reuses it across solves.
    util::Thread_pool* pool = nullptr;

    /// Session-persistent per-worker DP workspaces (workspace_pool.hpp):
    /// chunk c sweeps on slot c, so the incremental-PACE checkpoints
    /// survive between solves and a repeat solve of the same problem
    /// resumes instead of re-sweeping (results bit-identical either
    /// way; the cross-solve share lands in
    /// Search_result::dp_rows_reused_cross_request).  Null: per-chunk
    /// stack workspaces, exactly the pre-pool behaviour.  A
    /// solver::Session always fills this in.
    Dp_workspace_pool* dp_pool = nullptr;

    /// Optional cancellation handle: the walker polls it at subtree
    /// and leaf boundaries and stops with the incumbent found so far
    /// (Search_result::status reports why).  A non-null token disables
    /// incumbent priming — pruning against a probe time that is never
    /// itself enumerated could leave a truncated run without the best
    /// point of its explored prefix.  Untripped armed runs still
    /// return the bit-identical best tuple (priming is admissible).
    const util::Cancel_token* cancel = nullptr;

    /// Restrict the walk to the leaf-index range [window.begin,
    /// window.end) of [0, Alloc_space::size()) — the distributed
    /// search's range lease.  The default sentinel covers the whole
    /// space; a non-sentinel window must satisfy
    /// 0 <= begin <= end <= size (throws std::invalid_argument).
    ///
    /// Contract: folding the per-window bests of any partition of the
    /// space in window order with better_than reproduces the
    /// full-space best tuple bit-identically.  A single window's best
    /// on its own is only guaranteed to be the window's true best up
    /// to priming/bound screening against global probe points — fine
    /// in the union fold (the winner and its ties always survive, see
    /// Shared_bound), not a per-window optimality claim.
    util::Chunk_range window;

    /// Optional cross-process incumbent bound (see util::Shared_bound):
    /// sampled at chunk entry and at the strided leaf polls, folded
    /// into the prune threshold.  Every stored value must be the
    /// hybrid time of a real evaluated point, so any sampling timing
    /// yields the bit-identical best tuple.
    const util::Shared_bound* incumbent_bound = nullptr;
};

/// Score every allocation within `restrictions` whose data-path fits
/// the ASIC and return the one PACE likes best.  Ties are broken
/// toward smaller data-path area (cheaper hardware), then toward the
/// enumeration order (deterministic, independent of thread count).
///
/// This is the engine behind the solver's `exhaustive_bb` strategy;
/// prefer driving it through a solver::Session, which owns the thread
/// pool, the shared cache and the shared invariants for you.
Search_result exhaustive_engine(const Eval_context& ctx,
                                const core::Rmap& restrictions,
                                const Exhaustive_options& options = {});

}  // namespace lycos::search
