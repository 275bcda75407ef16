// multi_asic_bb — branch-and-bound over the two-ASIC pair *tree*.
//
// PR 4 introduced the first multi-ASIC allocation search as a flat
// quadratic pair walk: every (a0 allocation, a1 allocation) pair of
// the per-axis filtered point lists was visited, bounded per pair,
// and hard-capped by Multi_asic_extras::pair_limit (an exception).
// This engine restructures the walk as a deterministic branch-and-
// bound over the a0-major pair tree:
//
//   * rows are the tree's first level: one a0 axis point = one row of
//     f1 pairs.  Before any per-pair DP runs in a row, an admissible
//     *row bound* may kill the whole row: the sparse value-only DP
//     (multi_pace_best_saving) over the row's exact asic0 costs and a
//     per-BSB best-case relaxation of every asic1 axis point (minimal
//     t_hw/comm/ctrl_area, maximal adjacency saving over the axis,
//     the axis's smallest data-path area as the budget debit), with
//     Multi_pace_options::optimistic_rounding so quantization can
//     only widen the bound.  No pair in the row can beat it, so a
//     killed row prunes f1 pairs for one O(states) sweep — cheaper
//     still, a budget-free multi_max_gain over the same relaxed costs
//     screens the row in O(n) first,
//   * surviving rows run the PR 4 per-pair ladder: multi_max_gain,
//     then the sparse screening DP, then the full sparse partition
//     with traceback — all over the Pareto-sparse state sets now,
//   * every sweep against a finite threshold (the row bound, a pair's
//     screen, and the partition of a pair that passed it) carries a
//     saving floor one slack below the kill line: the DP drops the
//     states that cannot reach it and stops once none is left, and
//     the kill tests read its below-floor bound unchanged,
//   * allocation dominance: before any row runs, both axes are
//     screened down to their undominated points (a point y is
//     dominated when an earlier point of the (area, index) order runs
//     every BSB y can run no slower and with no more controller area).
//     t_sw, comm and save_prev do not depend on the allocation, so a
//     pair with a dominated point never beats the pair with its
//     dominator; dominated rows and columns are skipped unscored and
//     counted as pruned.  The filter needs one DP quantum for every
//     pair and exact cost sums (screen_axes checks both per problem),
//     and like priming it is off under a token or a truncating
//     pair_limit, whose walked prefix may miss the dominator,
//   * the axes, their dominance masks and the a1 axis costs live in
//     the session's Pair_axes (search/workspace_pool.hpp), built once
//     and read by every later solve of the session — distributed
//     leases and serve batches included — and by every worker and the
//     row relaxation; only the a0 row costs go through a worker's
//     Eval_cache, once per live row,
//   * rows are claimed dynamically, in increasing order, from one
//     atomic cursor by n_threads workers over the Session pool; the
//     workers share one in-process incumbent bound, and the reduce
//     takes the lexicographic minimum of (time, combined area, pair
//     index) over the workers' bests,
//   * pair_limit is a *soft* guard: a pair space beyond it is walked
//     up to exactly pair_limit pairs in a0-major order —
//     deterministically, whatever the thread count — with the
//     remainder reported as Multi_solve_result::pairs_skipped and the
//     status as Solve_status::budget instead of thrown.  Incumbent
//     priming is disabled in that case, so every prune compares
//     against a pair inside the walked prefix and the best pair
//     equals the brute-force best of the prefix.
//
// Every prune (row or pair) removes only pairs provably worse in
// time than a pair that is actually evaluated, the dominance filter
// only pairs that lose the (time, combined area, pair index) order to
// a walked pair, and each worker keeps the first of its tied bests in
// enumeration order — so the best (time, combined area, pair) tuple
// is bit-identical to the brute-force pair scan for any thread count,
// claim interleaving, or bound setting, the determinism contract all
// strategies carry.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>

#include "search/alloc_space.hpp"
#include "search/workspace_pool.hpp"
#include "solver/internal.hpp"
#include "util/cancel.hpp"
#include "util/chunk_range.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace lycos::solver::detail {

namespace {

constexpr double k_inf = std::numeric_limits<double>::infinity();

/// Largest single-ASIC space the per-axis enumeration will walk while
/// building the filtered point lists.
constexpr long long k_axis_enum_limit = 1LL << 22;

/// What one worker accumulates over the rows it claimed.
struct Pair_chunk {
    bool have_best = false;
    double best_time = 0.0;
    double best_area_sum = 0.0;
    long long best_i = 0;
    long long best_j = 0;
    pace::Multi_pace_result best_partition;
    long long n_evaluated = 0;
    long long n_pruned = 0;
    long long n_pruned_remote = 0;  ///< kills only the external bound made
    long long rows_visited = 0;
    long long rows_pruned = 0;
    long long dp_states_swept = 0;
    long long dp_cells_dense = 0;
    long long rows_abandoned = 0;
    long long pairs_dominated = 0;
    bool stopped = false;
    search::Eval_cache_stats stats;
};

/// Fill the a0 half of the combined costs (t_sw is allocation-
/// independent and rides along).  Done once per a0 row of the walk;
/// set_asic1_costs patches only the a1 half, for the pairs that reach
/// a DP.
void set_asic0_costs(std::span<const pace::Bsb_cost> c0,
                     std::vector<pace::Multi_bsb_cost>& out)
{
    out.resize(c0.size());
    for (std::size_t k = 0; k < c0.size(); ++k) {
        out[k].t_sw = c0[k].t_sw;
        out[k].hw[0] = c0[k];
    }
}

void set_asic1_costs(std::span<const pace::Bsb_cost> c1,
                     std::vector<pace::Multi_bsb_cost>& out)
{
    for (std::size_t k = 0; k < c1.size(); ++k)
        out[k].hw[1] = c1[k];
}

/// Per-BSB best case over every asic1 point the walk pairs up — the
/// admissible relaxation behind the row bound.  Each field is optimistic
/// independently (the jointly-best point need not exist), so any DP
/// or gain bound over these costs upper-bounds every concrete pair's:
/// minimal hardware and bus time, minimal controller area, maximal
/// adjacency credit.  A BSB infeasible on the whole axis keeps the
/// infinite cost and can only go to asic0 or software in the bound —
/// exactly as in every concrete pair.
struct Axis_relaxation {
    std::vector<pace::Bsb_cost> best_case;  ///< per BSB
    double min_area = 0.0;  ///< smallest data-path area on the axis
};

/// Relaxation over the rows of an a1 cost table (`table` holds n_bsbs
/// costs per point, point-major) whose smallest data-path area is
/// `min_area`.
Axis_relaxation relax_axis(std::span<const pace::Bsb_cost> table,
                           std::size_t n_bsbs, double min_area)
{
    Axis_relaxation r;
    for (std::size_t row = 0; row * n_bsbs < table.size(); ++row) {
        const auto costs = table.subspan(row * n_bsbs, n_bsbs);
        if (r.best_case.empty()) {
            r.best_case.assign(costs.begin(), costs.end());
            for (auto& c : r.best_case)
                if (std::isinf(c.t_hw)) {
                    c.comm = 0.0;
                    c.save_prev = 0.0;
                }
        }
        else {
            for (std::size_t k = 0; k < costs.size(); ++k) {
                auto& b = r.best_case[k];
                const auto& c = costs[k];
                if (std::isinf(c.t_hw))
                    continue;
                if (std::isinf(b.t_hw)) {
                    b = c;
                    continue;
                }
                b.t_hw = std::min(b.t_hw, c.t_hw);
                b.comm = std::min(b.comm, c.comm);
                b.ctrl_area = std::min(b.ctrl_area, c.ctrl_area);
                b.save_prev = std::max(b.save_prev, c.save_prev);
            }
        }
    }
    r.min_area = std::isinf(min_area) ? 0.0 : min_area;
    return r;
}

/// Bound of the exact-sums guard: each time field of a cost row, and
/// the row's total, stay below it.
constexpr double k_exact_limit = 0x1p50;

/// The exact-sums guard on one point's cost row: t_sw and every
/// finite t_hw, comm and save_prev an integer, and their magnitudes
/// summed over the BSBs below 2^50.  Every DP value, evaluated time
/// and intermediate sum over a pair of such rows is then an integer
/// below 2^51, computed exactly, so a pair's time is exactly monotone
/// in each of its costs.
bool exact_row(std::span<const pace::Bsb_cost> costs)
{
    double total = 0.0;
    for (const auto& c : costs) {
        const double t_hw = std::isinf(c.t_hw) ? 0.0 : c.t_hw;
        for (const double x : {c.t_sw, t_hw, c.comm, c.save_prev}) {
            if (!(std::abs(x) < k_exact_limit) || x != std::floor(x))
                return false;
            total += std::abs(x);
        }
    }
    return total < k_exact_limit;
}

/// A point's dominance cells: per BSB its (t_hw, ctrl_area), or
/// (+inf, +inf) for a BSB it cannot run in hardware, which every
/// point then covers.
void dominance_cells(std::span<const pace::Bsb_cost> costs,
                     std::vector<double>& out)
{
    out.clear();
    for (const auto& c : costs) {
        const bool runs = !std::isinf(c.t_hw) && !std::isinf(c.ctrl_area);
        out.push_back(runs ? c.t_hw : k_inf);
        out.push_back(runs ? c.ctrl_area : k_inf);
    }
}

/// The dominance screen: fills prep.live_rows / live_cols / n_live
/// and sets prep.filterable when both soundness guards hold, else
/// leaves the filter off for the problem.
///
/// Rule.  Visit the points in (area, axis index) order; y is
/// dominated when an earlier-visited point x runs every BSB y can run
/// in hardware with t_hw(x) <= t_hw(y) and ctrl_area(x) <=
/// ctrl_area(y).  The visiting order makes area(x) < area(y), or
/// equal areas with x at the lower index, so the pair with x beats
/// the pair with y in the (time, area sum, pair index) order or ties
/// it.  Comparing y against the kept points only is enough, because
/// dominance is transitive.
///
/// Guards, either of which turns the filter off:
///   * one quantum: Problem::area_quantum > 0, and the largest DP grid
///     any pair needs (budgets minus each axis's smallest data-path
///     area) fits the default max_dp_cells, so no pair is
///     re-quantized and a larger controller budget or a smaller
///     controller area can only widen what a pair's DP may place;
///   * exact sums: exact_row on every point, and every data-path area
///     an integer below 2^52, so area sums are exact too.
///
/// The larger budget's axis is walked once through `cache`; the other
/// axis is its subsequence of points within the smaller budget, and a
/// dominator never has more area than the point it dominates, so one
/// mask serves both.  Only the kept points' cells are held.
void screen_axes(search::Pair_axes& prep, const search::Eval_context& ctx,
                 const std::array<double, 2>& budgets,
                 search::Eval_cache& cache)
{
    prep.screened = true;
    const double q = ctx.area_quantum;
    if (!(q > 0.0))
        return;
    double cells = 1.0;
    for (std::size_t k = 0; k < 2; ++k) {
        double min_area = k_inf;
        for (const auto& p : prep.axis[k])
            min_area = std::min(min_area, p.area);
        cells *= std::floor((budgets[k] - min_area) / q) + 1.0;
    }
    if (!(cells <=
          static_cast<double>(pace::Multi_pace_options{}.max_dp_cells)))
        return;

    const std::size_t big = budgets[0] >= budgets[1] ? 0 : 1;
    const auto& points = prep.axis[big];
    for (const auto& p : points)
        if (!(p.area < 0x1p52) || p.area != std::floor(p.area))
            return;
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return points[a].area < points[b].area;
                     });

    const std::size_t n_cells = 2 * ctx.bsbs.size();
    std::vector<double> kept;  // n_cells per kept point
    std::vector<std::uint8_t> live(points.size(), 0);
    std::vector<pace::Bsb_cost> costs;
    std::vector<double> cells_y;
    for (const std::size_t y : order) {
        cache.costs_for(points[y].alloc, costs);
        if (!exact_row(costs))
            return;
        dominance_cells(costs, cells_y);
        bool dominated = false;
        // Latest kept first: the larger data-paths cover the most.
        for (std::size_t x = kept.size(); x > 0 && !dominated; x -= n_cells)
            dominated = std::equal(cells_y.begin(), cells_y.end(),
                                   kept.begin() + static_cast<std::ptrdiff_t>(
                                                      x - n_cells),
                                   [](double cy, double cx) {
                                       return cx <= cy;
                                   });
        if (!dominated) {
            kept.insert(kept.end(), cells_y.begin(), cells_y.end());
            live[y] = 1;
        }
    }

    // Both axes' masks from the one walk, by a merge in index order.
    std::array<std::vector<std::uint8_t>, 2> mask;
    for (std::size_t k = 0; k < 2; ++k)
        for (std::size_t b = 0; b < points.size(); ++b)
            if (points[b].area <= budgets[k])
                mask[k].push_back(live[b]);
    prep.live_rows = std::move(mask[0]);
    prep.live_cols.clear();
    for (std::size_t j = 0; j < mask[1].size(); ++j)
        if (mask[1][j] != 0)
            prep.live_cols.push_back(static_cast<std::int32_t>(j));
    prep.n_live = {
        std::count(prep.live_rows.begin(), prep.live_rows.end(), 1),
        static_cast<long long>(prep.live_cols.size())};
    prep.filterable = true;
}

/// Make prep.costs1 hold the a1 rows this solve reads: the live
/// points' when it filters, else those of the first `reachable` a1
/// points (a longer prefix an earlier solve left serves as is).
void ensure_costs1(search::Pair_axes& prep, bool filter,
                   std::size_t reachable, std::size_t n_bsbs,
                   search::Eval_cache& cache)
{
    if (filter ? prep.costs1_live
               : !prep.costs1_live && prep.costs1_points >= reachable)
        return;
    const std::size_t rows = filter ? prep.live_cols.size() : reachable;
    // Marked empty until every row is in, so a throwing fetch leaves
    // nothing a later solve would trust.
    prep.costs1_live = false;
    prep.costs1_points = 0;
    prep.costs1.resize(rows * n_bsbs);
    std::vector<pace::Bsb_cost> costs;
    for (std::size_t c = 0; c < rows; ++c) {
        const std::size_t j =
            filter ? static_cast<std::size_t>(prep.live_cols[c]) : c;
        cache.costs_for(prep.axis[1][j].alloc, costs);
        std::copy(costs.begin(), costs.end(),
                  prep.costs1.begin() +
                      static_cast<std::ptrdiff_t>(c * n_bsbs));
    }
    prep.costs1_live = filter;
    prep.costs1_points = filter ? 0 : reachable;
}

}  // namespace

search::Pair_axes& pair_axes(Session& session)
{
    search::Pair_axes& prep = session.workspaces().pair_axes();
    if (prep.enumerated)
        return prep;
    const search::Eval_context& ctx = session.context();
    const auto budgets = multi_asic_budgets(session.problem());
    const search::Alloc_space space(ctx.lib,
                                    session.problem().restrictions);
    if (space.size() > k_axis_enum_limit)
        throw std::invalid_argument(
            "multi_asic_bb: single-ASIC space too large to enumerate per "
            "axis (" +
            std::to_string(space.size()) + " points); tighten restrictions");
    // Every allocation whose data-path fits that ASIC, in mixed-radix
    // enumeration order.
    prep.axis = {};
    const double max_budget = std::max(budgets[0], budgets[1]);
    space.for_each(max_budget, [&](const core::Rmap& a) {
        const double area = a.area(ctx.lib);
        for (std::size_t k = 0; k < 2; ++k)
            if (area <= budgets[k])
                prep.axis[k].push_back({a, area});
        return true;
    });
    prep.enumerated = true;
    return prep;
}

void combine_costs(std::span<const pace::Bsb_cost> c0,
                   std::span<const pace::Bsb_cost> c1,
                   std::vector<pace::Multi_bsb_cost>& out)
{
    set_asic0_costs(c0, out);
    set_asic1_costs(c1, out);
}

Solve_result solve_multi_asic_bb(Session& session,
                                 const Solve_options& options)
{
    util::Wall_timer timer;
    const auto extras =
        extras_or_default<Multi_asic_extras>(options, "multi_asic_bb");
    const search::Eval_context& ctx = session.context();
    const auto budgets = multi_asic_budgets(session.problem());

    search::Pair_axes& prep = pair_axes(session);
    const auto& axis = prep.axis;
    const long long f0 = static_cast<long long>(axis[0].size());
    const long long f1 = static_cast<long long>(axis[1].size());
    const long long pairs = f0 * f1;  // each axis <= 2^22, no overflow

    // Soft pair cap: walk exactly the first `walked` pairs (a0-major
    // order), skip the rest deterministically — the PR 4 hard throw
    // retired.  <= 0 means unlimited.
    const long long walked =
        extras.pair_limit > 0 ? std::min(pairs, extras.pair_limit) : pairs;

    Solve_result out;
    out.strategy = "multi_asic_bb";
    out.space_size = pairs;
    out.multi.active = true;
    out.multi.asic_areas = budgets;
    out.multi.axis_points = {f0, f1};
    out.multi.axis_live = {f0, f1};
    out.multi.pairs_skipped = pairs - walked;
    // A best-of-prefix is an anytime result, never `complete`: the
    // skipped pairs were cut by the pair budget.
    if (out.multi.pairs_skipped > 0)
        out.status = util::Solve_status::budget;
    if (walked == 0) {
        out.seconds = timer.seconds();
        return out;
    }
    const long long n_rows = (walked + f1 - 1) / f1;

    // Resolve the a0-row window (a distributed range lease, or all
    // rows).  Everything derived from the full walk — axis lists,
    // prefix truncation, priming, the row relaxation — is computed
    // identically whatever the window, so per-window bests fold to
    // the full-space best bit-identically.
    const long long r_begin =
        options.window.whole() ? 0 : options.window.begin;
    const long long r_end =
        options.window.whole() ? n_rows : options.window.end;
    if (r_begin < 0 || r_begin > r_end || r_end > n_rows)
        throw std::invalid_argument(
            "multi_asic_bb: window [" + std::to_string(r_begin) + ", " +
            std::to_string(r_end) + ") outside the row range [0, " +
            std::to_string(n_rows) + ")");
    const long long n_rows_work = r_end - r_begin;
    if (n_rows_work == 0) {
        out.seconds = timer.seconds();
        return out;
    }

    // Shared prep: the dominance screen and the a1 cost table (kept in
    // the session's Pair_axes, so only the session's first solve pays
    // for them), the all-software baseline, the float-safety slack, the
    // row relaxation, and a primed time-to-beat from the greedy probe
    // pair so every worker prunes from the start.  The prep runs on the
    // session cache, so worker 0 starts warm.
    const Worker_caches caches(session, options.cache_capacity);
    search::Eval_cache& prep_cache = caches.session_cache();

    // A pruned walk over every pair that no token can cut short.  Only
    // such a walk primes its incumbent or filters dominated points: a
    // truncated prefix, or a cut at an index unknown in advance, may
    // walk a pair but not the probe pair or the dominator that beats
    // it, and pruning against those could starve the walked part of
    // its own best.
    const bool full_walk = options.use_pruning &&
                           out.multi.pairs_skipped == 0 &&
                           options.cancel == nullptr;
    if (full_walk && !prep.screened)
        screen_axes(prep, ctx, budgets, prep_cache);
    const bool filter = full_walk && prep.filterable;
    if (filter)
        out.multi.axis_live = prep.n_live;

    const bool use_row_bound = options.use_pruning && extras.use_row_bound;
    const std::size_t n_bsbs = ctx.bsbs.size();
    // The a1 points a row pairs up, in increasing index order: the
    // live ones, or (filter off) all of them — under a truncating
    // pair_limit no row reaches a1 points past the walked prefix, so
    // the table (and the relaxation over it) covers just those.
    const long long n_cols =
        filter ? prep.n_live[1] : std::min<long long>(f1, walked);
    const auto column = [&](long long c) {
        return filter ? static_cast<long long>(
                            prep.live_cols[static_cast<std::size_t>(c)])
                      : c;
    };
    double all_sw = 0.0;
    double prime_time = std::numeric_limits<double>::infinity();
    Axis_relaxation relax1;
    {
        const search::Alloc_space space(ctx.lib,
                                        session.problem().restrictions);
        std::vector<pace::Bsb_cost> probe0;
        std::vector<pace::Bsb_cost> probe1;
        std::vector<pace::Multi_bsb_cost> probe_costs;
        // Greedy per-axis probe (the prime_incumbent idea): a point of
        // the filtered axis list, so priming against its screened time
        // can only remove pairs strictly worse than a pair the
        // enumeration scores anyway (or than its dominator, which the
        // enumeration scores when the probe is dominated).
        const auto g0 = space.greedy_fill(ctx.lib, budgets[0]);
        const auto g1 = space.greedy_fill(ctx.lib, budgets[1]);
        prep_cache.costs_for(g0, probe0);
        prep_cache.costs_for(g1, probe1);
        combine_costs(probe0, probe1, probe_costs);
        for (const auto& c : probe_costs)
            all_sw += c.t_sw;
        if (full_walk) {
            pace::Multi_pace_options mo;
            mo.ctrl_area_budgets = {budgets[0] - g0.area(ctx.lib),
                                    budgets[1] - g1.area(ctx.lib)};
            mo.area_quantum = ctx.area_quantum;
            pace::Multi_pace_workspace mws;
            prime_time =
                all_sw - pace::multi_pace_best_saving(probe_costs, mo, &mws);
        }
        // The a1 cost table: every pair of every row reads its a1 half
        // there instead of re-fetching it from a cache per pair.
        ensure_costs1(prep, filter, static_cast<std::size_t>(n_cols),
                      n_bsbs, prep_cache);
        if (use_row_bound) {
            double min_area = k_inf;
            for (long long c = 0; c < n_cols; ++c)
                min_area = std::min(
                    min_area, axis[1][static_cast<std::size_t>(column(c))]
                                  .area);
            relax1 = relax_axis(
                std::span<const pace::Bsb_cost>(prep.costs1)
                    .first(static_cast<std::size_t>(n_cols) * n_bsbs),
                n_bsbs, min_area);
        }
    }
    const double slack = 1e-7 * std::max(1.0, std::abs(all_sw));
    // Saving floor of a sweep bounded by `threshold`: one slack below
    // its kill line, so float rounding in the DP's suffix bounds never
    // decides a kill (+inf, no incumbent yet, sweeps unbounded).
    const auto saving_floor = [&](double threshold) {
        return all_sw - threshold - 2.0 * slack;
    };
    const std::span<const pace::Bsb_cost> costs1_table(prep.costs1);

    const std::size_t n_threads = util::clamp_chunks(
        options.n_threads, util::Thread_pool::default_concurrency(),
        n_rows_work);
    out.n_threads = static_cast<int>(n_threads);

    // Session-persistent DP workspaces: worker c's Multi_pace_workspace
    // (sparse state sets, traceback arena, merge scratch) lives on pool
    // slot c, so its grow-only buffers survive between solves and a
    // repeat solve pays no re-allocation — the multi-ASIC share of the
    // serve layer's cross-request reuse.
    session.workspaces().prepare(n_threads);
    std::vector<Pair_chunk> chunks(n_threads);
    // Workers claim rows of [r_begin, r_end) from this cursor, each in
    // increasing order: row costs vary widely, and a worker that runs
    // out of work takes the next row instead of idling while another
    // finishes a slow fixed range.
    std::atomic<long long> next_row{r_begin};
    // The in-process incumbent: the best fully evaluated time of any
    // worker so far (so it also holds each worker's own best).
    // Admissible like the external bound — every value is a real
    // evaluated pair's time — so sharing it only prunes more, never
    // changes the winner.
    util::Shared_bound incumbent;
    const util::Shared_bound* ext = options.incumbent_bound;
    const auto run_worker = [&](std::size_t c) {
        Pair_chunk& chunk = chunks[c];
        std::optional<search::Eval_cache> own_cache;
        search::Eval_cache& cache = caches.worker(c, own_cache);

        std::vector<pace::Bsb_cost> costs0;
        std::vector<pace::Multi_bsb_cost> mcosts;
        // Per-worker workspace from the session pool: this lambda IS
        // the task body, and distinct workers use distinct slots.
        pace::Multi_pace_workspace& mws =
            session.workspaces().slot(c).multi;
        const auto count_sweep = [&] {
            chunk.dp_states_swept += mws.last_cells_swept();
            chunk.dp_cells_dense += mws.last_cells_dense();
        };
        // A sweep the token cut short abandons its row and stops the
        // claiming: the row was visited but not finished, and the
        // pair is neither counted nor offered (never a half-scored
        // candidate).
        const auto abandon_row = [&] {
            ++chunk.rows_abandoned;
            chunk.stopped = true;
        };
        // External incumbent (a distributed coordinator's broadcast):
        // admissible by the Shared_bound contract, so min()ing it into
        // every threshold only removes pairs provably worse than a
        // fully evaluated real pair — the winning tuple is unchanged.
        double ext_val = std::numeric_limits<double>::infinity();
        for (;;) {
            const long long i =
                next_row.fetch_add(1, std::memory_order_relaxed);
            if (i >= r_end)
                break;
            // Admission gate per a0 row — the thread-invariant work
            // unit: an injected cut walks exactly the rows below it,
            // whatever the thread count, so truncated incumbents stay
            // bit-identical.  A tripped token stops the claiming; rows
            // nobody claimed are counted as abandoned after the walk.
            if (options.cancel != nullptr &&
                !options.cancel->admit(static_cast<std::uint64_t>(i))) {
                ++chunk.rows_abandoned;
                if (options.cancel->tripped()) {
                    chunk.stopped = true;
                    break;
                }
                continue;
            }
            const auto& p0 = axis[0][static_cast<std::size_t>(i)];
            // The final row of a truncated prefix may be partial.
            const long long j_end = std::min(f1, walked - i * f1);
            if (filter && prep.live_rows[static_cast<std::size_t>(i)] == 0) {
                // A dominated a0 point: every pair of its row loses to
                // the same pair with its dominator.
                ++chunk.rows_visited;
                chunk.n_pruned += j_end;
                chunk.pairs_dominated += j_end;
                continue;
            }
            cache.costs_for(p0.alloc, costs0);
            set_asic0_costs(costs0, mcosts);
            ++chunk.rows_visited;
            // The row's dominated a1 points are skipped the same way
            // (with the filter on, no row is partial).
            const long long row_cols = filter ? n_cols : j_end;
            chunk.n_pruned += j_end - row_cols;
            chunk.pairs_dominated += j_end - row_cols;

            const double local_row = std::min(prime_time, incumbent.get());
            if (ext != nullptr)
                ext_val = ext->get();
            const double threshold_row = std::min(local_row, ext_val);
            if (use_row_bound && std::isfinite(threshold_row)) {
                // Level 1: budget-free O(n) gain bound over the row's
                // exact asic0 costs and the axis-relaxed asic1 costs.
                double bound_time =
                    all_sw -
                    pace::multi_max_gain(costs0, relax1.best_case);
                bool killed = bound_time > threshold_row + slack;
                if (!killed) {
                    // Level 2: the sparse value-only DP over the same
                    // relaxed costs, budget0 exact for this row,
                    // budget1 at the axis's smallest data-path debit,
                    // areas rounded optimistically so quantization
                    // differences can only widen the bound.
                    set_asic1_costs(relax1.best_case, mcosts);
                    pace::Multi_pace_options mo;
                    mo.ctrl_area_budgets = {budgets[0] - p0.area,
                                            budgets[1] - relax1.min_area};
                    mo.area_quantum = ctx.area_quantum;
                    mo.optimistic_rounding = true;
                    mo.saving_floor = saving_floor(threshold_row);
                    mo.cancel = options.cancel;
                    const double bound_saving =
                        pace::multi_pace_best_saving(mcosts, mo, &mws);
                    count_sweep();
                    if (bound_saving == -k_inf) {
                        abandon_row();
                        break;
                    }
                    bound_time = all_sw - bound_saving;
                    killed = bound_time > threshold_row + slack;
                }
                if (killed) {
                    chunk.n_pruned += row_cols;
                    // A kill the local threshold alone would not have
                    // made is credited to the remote bound.
                    if (!(bound_time > local_row + slack))
                        chunk.n_pruned_remote += row_cols;
                    ++chunk.rows_pruned;
                    continue;
                }
            }

            for (long long c = 0; c < row_cols; ++c) {
                // Live-condition poll once per pair: a tripped token
                // abandons this row, stops the claiming and keeps the
                // incumbent found so far.
                if (options.cancel != nullptr && options.cancel->stop()) {
                    abandon_row();
                    break;
                }
                const long long j = column(c);
                const auto& p1 = axis[1][static_cast<std::size_t>(j)];
                const auto costs1 = costs1_table.subspan(
                    static_cast<std::size_t>(c) * n_bsbs, n_bsbs);

                const double local_thr =
                    std::min(prime_time, incumbent.get());
                if (ext != nullptr)
                    ext_val = ext->get();
                const double threshold = std::min(local_thr, ext_val);

                pace::Multi_pace_options mo;
                mo.ctrl_area_budgets = {budgets[0] - p0.area,
                                        budgets[1] - p1.area};
                mo.area_quantum = ctx.area_quantum;
                mo.cancel = options.cancel;

                if (options.use_pruning) {
                    // The screen and the partition of a pair that
                    // passes it both sweep above this floor; a passing
                    // pair's optimum clears it, so its placement is
                    // the unbounded one.
                    mo.saving_floor = saving_floor(threshold);
                    // Budget-free bound: no placement of this pair can
                    // save more than multi_max_gain, whatever the
                    // controller areas turn out to be.
                    const double gain_time =
                        all_sw - pace::multi_max_gain(costs0, costs1);
                    if (gain_time > threshold + slack) {
                        ++chunk.n_pruned;
                        if (!(gain_time > local_thr + slack))
                            ++chunk.n_pruned_remote;
                        continue;
                    }
                }
                set_asic1_costs(costs1, mcosts);
                if (options.use_pruning) {
                    // Screening pass: the sparse DP's optimal value
                    // without the traceback arena.  A killed pair was
                    // scored — it counts as evaluated, like the
                    // single-ASIC walker's screened leaves.
                    const double saving =
                        pace::multi_pace_best_saving(mcosts, mo, &mws);
                    count_sweep();
                    if (saving == -k_inf) {
                        abandon_row();
                        break;
                    }
                    const double screen_time = all_sw - saving;
                    if (screen_time > threshold + slack) {
                        ++chunk.n_evaluated;
                        if (!(screen_time > local_thr + slack))
                            ++chunk.n_pruned_remote;
                        if (options.cancel != nullptr)
                            options.cancel->charge_evals(1);
                        continue;
                    }
                }

                const auto full =
                    pace::multi_pace_partition(mcosts, mo, &mws);
                count_sweep();
                // An aborted partition returns the all-software
                // placement; a trip seen here may have cut it short.
                if (options.cancel != nullptr && options.cancel->tripped()) {
                    abandon_row();
                    break;
                }
                ++chunk.n_evaluated;
                if (options.cancel != nullptr)
                    options.cancel->charge_evals(1);
                const double area_sum = p0.area + p1.area;
                // Rows and pairs arrive in increasing order, so the
                // strict comparison keeps this worker's earliest tie.
                if (!chunk.have_best ||
                    search::better_tuple(full.time_hybrid_ns, area_sum,
                                         chunk.best_time,
                                         chunk.best_area_sum)) {
                    chunk.best_time = full.time_hybrid_ns;
                    chunk.best_area_sum = area_sum;
                    chunk.best_i = i;
                    chunk.best_j = j;
                    chunk.best_partition = full;
                    chunk.have_best = true;
                    incumbent.tighten(full.time_hybrid_ns);
                }
            }
            if (chunk.stopped)
                break;
        }
        chunk.stats = caches.stats(cache);
    };

    std::size_t workers_skipped = 0;
    if (n_threads == 1) {
        run_worker(0);
    }
    else {
        // One dispatch unit per worker; the rows are shared through
        // the cursor, not split up front.
        workers_skipped = util::parallel_chunks(
            session.pool(n_threads), static_cast<long long>(n_threads),
            n_threads,
            [&](std::size_t c, long long, long long) { run_worker(c); },
            options.cancel);
    }

    // Reduce to the lexicographic minimum of (time, combined area,
    // a0-major pair index): the brute-force scan's first occurrence,
    // whichever worker claimed which rows.
    bool have_best = false;
    std::tuple<double, double, long long> best_key;
    for (const auto& chunk : chunks) {
        out.n_evaluated += chunk.n_evaluated;
        out.n_pruned += chunk.n_pruned;
        out.n_pruned_remote += chunk.n_pruned_remote;
        out.rows_abandoned += chunk.rows_abandoned;
        out.chunks_abandoned += chunk.stopped ? 1 : 0;
        out.multi.rows_visited += chunk.rows_visited;
        out.multi.rows_pruned += chunk.rows_pruned;
        out.multi.pairs_dominated += chunk.pairs_dominated;
        out.multi.dp_states_swept += chunk.dp_states_swept;
        out.multi.dp_cells_dense += chunk.dp_cells_dense;
        out.cache_stats += chunk.stats;
        if (!chunk.have_best)
            continue;
        const std::tuple key(chunk.best_time, chunk.best_area_sum,
                             chunk.best_i * f1 + chunk.best_j);
        if (have_best && !(key < best_key))
            continue;
        best_key = key;
        const auto& p0 = axis[0][static_cast<std::size_t>(chunk.best_i)];
        const auto& p1 = axis[1][static_cast<std::size_t>(chunk.best_j)];
        out.multi.datapaths = {p0.alloc, p1.alloc};
        out.multi.datapath_area = {p0.area, p1.area};
        out.multi.partition = chunk.best_partition;
        have_best = true;
    }
    out.have_best = have_best;
    out.rows_abandoned += r_end - std::min(next_row.load(), r_end);
    out.chunks_abandoned += static_cast<long long>(workers_skipped);
    settle_status(out, options.cancel);

    out.seconds = timer.seconds();
    return out;
}

}  // namespace lycos::solver::detail
