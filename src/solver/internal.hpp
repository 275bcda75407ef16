// Internal seams between the solver translation units: the strategy
// singletons in strategies.cpp dispatch to the per-strategy solve
// functions (one file each), and the plumbing every strategy shares —
// the search context, the worker caches, the anytime status rule —
// lives here once.  Not part of the public API.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "solver/solver.hpp"

namespace lycos::search {
struct Pair_axes;
}

namespace lycos::solver::detail {

/// Extras accessor shared by the strategies: defaults on monostate, a
/// loud error on a mismatched alternative (a Multi_asic_extras handed
/// to hill_climb is a caller bug, not something to silently ignore).
template <typename Extras>
Extras extras_or_default(const Solve_options& options,
                         std::string_view strategy)
{
    if (std::holds_alternative<std::monostate>(options.extras))
        return Extras{};
    if (const auto* e = std::get_if<Extras>(&options.extras))
        return *e;
    throw std::invalid_argument(std::string(strategy) +
                                ": Solve_options::extras holds the wrong "
                                "alternative for this strategy");
}

Solve_result solve_exhaustive_bb(Session& session,
                                 const Solve_options& options);
Solve_result solve_hill_climb(Session& session,
                              const Solve_options& options);
Solve_result solve_multi_asic_bb(Session& session,
                                 const Solve_options& options);

/// The per-ASIC area budgets multi_asic_bb searches: the problem's
/// asic_areas, or an even split of the single target when unset.
std::array<double, 2> multi_asic_budgets(const Problem& problem);

/// The session's multi_asic_bb axes: Pair_axes::axis enumerated on
/// first use (throws std::invalid_argument when the single-ASIC space
/// is too large to enumerate).  Not thread-safe, like Session::cache.
search::Pair_axes& pair_axes(Session& session);

/// The two-ASIC cost vector of one allocation pair: per BSB the
/// allocation-independent t_sw plus each ASIC's cost.
void combine_costs(std::span<const pace::Bsb_cost> c0,
                   std::span<const pace::Bsb_cost> c1,
                   std::vector<pace::Multi_bsb_cost>& out);

/// The session context the single-ASIC strategies evaluate under.
/// With an explicit search quantum the DP table width is pinned to the
/// total ASIC area, so a worker's Pace_workspace checkpoint stays
/// valid across points with different leftover controller budgets
/// (value rows are budget-independent for a fixed quantum and width —
/// see Pace_options::table_area_budget).  The automatic quantum
/// derives from the budget, and widening the table would change it,
/// so without one the per-call width stays.
search::Eval_context search_context(const Session& session,
                                    const util::Cancel_token* cancel);

/// The worker caches of one solve.  Build it before any worker runs:
/// Session::cache and Session::invariants are lazy and not
/// thread-safe.  Worker 0 runs on the session cache — warm across
/// solves and shared with Session::rescore — and reports what this
/// solve added to its stats since construction; every other worker
/// runs on a private cache over the session invariants (the memo is
/// single-threaded, see eval_cache.hpp).
class Worker_caches {
public:
    Worker_caches(Session& session, std::size_t capacity);

    /// The session cache: worker 0's, warmed by any prep done before
    /// the workers start.
    search::Eval_cache& session_cache() const { return session_cache_; }

    /// Worker c's cache; a worker c > 0 gets a fresh private cache,
    /// built into `own` (owned by the calling task).
    search::Eval_cache& worker(std::size_t c,
                               std::optional<search::Eval_cache>& own) const;

    /// The lookups `cache` (one of worker()'s) served in this solve.
    search::Eval_cache_stats stats(const search::Eval_cache& cache) const;

private:
    const search::Eval_context& ctx_;
    search::Eval_cache& session_cache_;
    std::shared_ptr<const search::Eval_invariants> invariants_;
    std::size_t capacity_;
    search::Eval_cache_stats before_;
};

/// The anytime status rule, applied after the reduce: a tripped
/// token's own status wins; with a clean token, refused or abandoned
/// work units mean an injected cut (which never sets the token's flag)
/// and make the result `cancelled`.  Otherwise `out.status` stays as
/// the strategy set it — complete, or the `budget` a truncating
/// pair_limit set.
void settle_status(Solve_result& out, const util::Cancel_token* cancel);

}  // namespace lycos::solver::detail
