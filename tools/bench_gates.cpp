#include "bench_gates.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/random_app.hpp"
#include "core/analysis.hpp"
#include "core/multi_allocator.hpp"
#include "core/restrictions.hpp"
#include "dist/dist.hpp"
#include "hw/target.hpp"
#include "pace/multi_asic.hpp"
#include "search/alloc_space.hpp"
#include "serve/serve.hpp"
#include "serve/trace.hpp"
#include "solver/solver.hpp"
#include "util/arena.hpp"
#include "util/cancel.hpp"
#include "util/format.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace lycos::gates {

namespace {

/// One JSON object under construction, keys in insertion order.
class Json {
public:
    template <typename T>
        requires std::is_arithmetic_v<T>
    Json& add(std::string_view key, T value)
    {
        if constexpr (std::is_same_v<T, bool>) {
            return raw(key, value ? "true" : "false");
        }
        else if constexpr (std::is_integral_v<T>) {
            return raw(key, std::to_string(value));
        }
        else {
            std::ostringstream out;
            out.precision(6);
            out << value;
            return raw(key, out.str());
        }
    }
    Json& add(std::string_view key, std::string_view text)
    {
        return raw(key, "\"" + std::string(text) + "\"");
    }
    Json& add(std::string_view key, const Json& object)
    {
        return raw(key, object.str());
    }
    Json& add(std::string_view key, const std::vector<Json>& array)
    {
        std::string text = "[";
        for (std::size_t i = 0; i < array.size(); ++i)
            text += (i > 0 ? ", " : "") + array[i].str();
        return raw(key, text + "]");
    }
    /// An already-serialized value.
    Json& raw(std::string_view key, const std::string& value)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"";
        body_ += key;
        body_ += "\": ";
        body_ += value;
        return *this;
    }
    std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

/// The shared scenario: 16 BSBs at the top of the bench_scaling sweep
/// range (128 ops each) with heterogeneous op mixes, the real flow's
/// restrictions clamped to at most 2 per resource type so the naive
/// baseline finishes in seconds, searched at the usual coarse quantum.
class Scenario {
public:
    static constexpr int n_bsbs = 16;
    static constexpr int ops_per_bsb = 128;
    static constexpr double asic_area = 20000.0;
    static constexpr int max_count_per_type = 2;
    static constexpr std::uint64_t seed = 42;
    static constexpr double quantum = asic_area / 256.0;

    Scenario()
    {
        // Heterogeneous BSBs: like real basic blocks, each uses a
        // small random subset of the operation kinds.  This is the
        // composition the Eval_cache projection keying exploits: a
        // BSB's schedule is independent of the counts of types it
        // cannot use, so points differing only there share its entry.
        util::Rng rng(seed);
        const std::vector<hw::Op_kind> kind_pool = {
            hw::Op_kind::add, hw::Op_kind::sub,    hw::Op_kind::mul,
            hw::Op_kind::div, hw::Op_kind::cmp_lt, hw::Op_kind::const_load,
        };
        for (int i = 0; i < n_bsbs; ++i) {
            apps::Random_app_params params;
            params.n_bsbs = 1;
            params.min_ops = ops_per_bsb;
            params.max_ops = ops_per_bsb;
            params.kinds.clear();
            auto pool = kind_pool;
            const int n_kinds = rng.uniform_int(2, 4);
            for (int k = 0; k < n_kinds; ++k) {
                const auto pick = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(pool.size()) - 1));
                params.kinds.push_back(pool[pick]);
                pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
            }
            auto one = apps::random_bsbs(rng, params);
            one[0].name = "R" + std::to_string(i);
            bsbs.push_back(std::move(one[0]));
        }

        infos = core::analyze(bsbs, lib, target.gates);
        // Rebuild rather than clamp in place: Rmap::set(r, 0) erases
        // the entry, which would invalidate an iterator over entries().
        for (const auto& [r, bound] :
             core::compute_restrictions(infos, lib).entries())
            restrictions.set(r, std::min(bound, max_count_per_type));

        const search::Alloc_space space(lib, restrictions);
        space_size = space.size();
        space.for_each(target.asic.total_area, [&](const core::Rmap&) {
            ++n_fitting;
            return true;
        });
    }

    Scenario(const Scenario&) = delete;
    Scenario& operator=(const Scenario&) = delete;

    search::Eval_context context() const
    {
        return {bsbs, lib, target, pace::Controller_mode::list_schedule,
                quantum};
    }

    solver::Problem problem(double area_quantum = quantum) const
    {
        solver::Problem p;
        p.bsbs = bsbs;
        p.lib = &lib;
        p.target = target;
        p.restrictions = restrictions;
        p.ctrl_mode = pace::Controller_mode::list_schedule;
        p.area_quantum = area_quantum;
        return p;
    }

    const hw::Hw_library lib = hw::make_default_library();
    const hw::Target target = hw::make_default_target(asic_area);
    std::vector<bsb::Bsb> bsbs;
    std::vector<core::Bsb_info> infos;
    core::Rmap restrictions;
    long long space_size = 0;
    /// Points whose data-path fits the ASIC: the unpruned workload the
    /// effective rates of the pruned searches are quoted against.
    long long n_fitting = 0;
};

/// What one section reports.  An empty `failure` is a pass.
struct Section_report {
    Json json;
    std::string summary;
    std::string failure;

    void fail(const std::string& why)
    {
        failure += (failure.empty() ? "" : "; ") + why;
    }
};

double rate(long long n, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
}

double ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

bool same_tuple(const search::Evaluation& a, const search::Evaluation& b)
{
    return a.datapath == b.datapath &&
           a.partition.time_hybrid_ns == b.partition.time_hybrid_ns &&
           a.datapath_area == b.datapath_area;
}

/// Min-of-N wall time of `call` (the noise-robust estimator of a
/// deterministic kernel's cost).
template <typename Call>
double min_seconds(int reps, Call&& call)
{
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < reps; ++i) {
        const util::Wall_timer t;
        call();
        best = std::min(best, t.seconds());
    }
    return best;
}

// --- search: the old-vs-new exhaustive variants ----------------------
//
// The same walk four ways: a flat walk scoring every fitting point
// with the naive cycle-stepping scheduler and no memo, pruning or
// threads (the original baseline); exhaustive_bb unpruned on one
// thread (event-driven scheduler + Eval_cache); exhaustive_bb with its
// branch-and-bound, incremental DP and value-only screening; the same
// on every hardware thread.  Each exhaustive_bb variant runs on a
// fresh Session, so every one starts cold.  Gate: all four land on
// the identical best allocation, and the pruned (incremental) walk
// matches the cold unpruned one.
struct Flat_walk {
    search::Evaluation best;
    long long n_evaluated = 0;
    double seconds = 0.0;
};

/// The baseline's per-point work: costs built from scratch, the DP on
/// one reused workspace at the table width exhaustive_bb pins.
Flat_walk naive_flat_walk(const Scenario& s)
{
    const util::Wall_timer timer;
    search::Eval_context ctx = s.context();
    ctx.scheduler = sched::Scheduler_kind::naive;
    ctx.dp_table_budget = s.target.asic.total_area;
    pace::Pace_workspace ws;
    Flat_walk out;
    search::Alloc_space(s.lib, s.restrictions)
        .for_each(s.target.asic.total_area, [&](const core::Rmap& a) {
            auto ev = search::evaluate_allocation(ctx, a, nullptr, &ws);
            if (out.n_evaluated++ == 0 || search::better_than(ev, out.best))
                out.best = std::move(ev);
            return true;
        });
    out.seconds = timer.seconds();
    return out;
}

Section_report run_search(const Scenario& s)
{
    const auto exhaustive = [&](solver::Solve_options options) {
        solver::Session session(s.problem());
        return session.solve("exhaustive_bb", options);
    };
    const auto old_run = naive_flat_walk(s);
    const auto single =
        exhaustive({.n_threads = 1, .use_pruning = false});
    const auto pruned = exhaustive({.n_threads = 1});
    const auto parallel = exhaustive({.n_threads = 0});

    const bool pruned_matches = same_tuple(old_run.best, pruned.best);
    const bool same_best = same_tuple(old_run.best, single.best) &&
                           pruned_matches &&
                           same_tuple(old_run.best, parallel.best);

    // The pruned walks cover the same space, so their throughput is the
    // unpruned workload over their wall time ("effective").
    const double eps_old = rate(old_run.n_evaluated, old_run.seconds);
    const double eps_single = rate(single.n_evaluated, single.seconds);
    const double eps_pruned = rate(single.n_evaluated, pruned.seconds);
    const double eps_parallel = rate(single.n_evaluated, parallel.seconds);

    Section_report r;
    r.json
        .add("old", Json()
                        .add("seconds", old_run.seconds)
                        .add("evals_per_sec", eps_old))
        .add("new_single", Json()
                               .add("seconds", single.seconds)
                               .add("evals_per_sec", eps_single)
                               .add("cache_hit_rate",
                                    single.cache_stats.hit_rate()))
        .add("new_pruned", Json()
                               .add("seconds", pruned.seconds)
                               .add("effective_evals_per_sec", eps_pruned)
                               .add("n_evaluated", pruned.n_evaluated)
                               .add("n_pruned", pruned.n_pruned)
                               .add("cache_hit_rate",
                                    pruned.cache_stats.hit_rate())
                               .add("dp_rows_reused", pruned.dp_rows_reused)
                               .add("dp_rows_swept", pruned.dp_rows_swept))
        .add("new_parallel", Json()
                                 .add("seconds", parallel.seconds)
                                 .add("effective_evals_per_sec", eps_parallel)
                                 .add("n_threads", parallel.n_threads))
        .add("speedup_single", ratio(eps_single, eps_old))
        .add("speedup_pruned", ratio(eps_pruned, eps_old))
        .add("speedup_pruned_vs_single", ratio(eps_pruned, eps_single))
        .add("speedup_parallel", ratio(eps_parallel, eps_old))
        .add("pruned_matches_unpruned", pruned_matches)
        .add("same_best", same_best);
    r.summary =
        "old " + util::fixed(eps_old, 1) + " evals/s; single " +
        util::fixed(eps_single, 1) + " (" +
        util::fixed(ratio(eps_single, eps_old), 1) + "x, hit rate " +
        util::fixed(100.0 * single.cache_stats.hit_rate(), 1) +
        "%); pruned " + util::fixed(eps_pruned, 1) + " effective (" +
        util::fixed(ratio(eps_pruned, eps_single), 1) + "x single, " +
        std::to_string(pruned.n_pruned) + " pruned, " +
        std::to_string(pruned.dp_rows_reused) + " DP rows reused / " +
        std::to_string(pruned.dp_rows_swept) + " swept); parallel (" +
        std::to_string(parallel.n_threads) + " threads) " +
        util::fixed(eps_parallel, 1) + " effective; same best allocation: " +
        (same_best ? "yes" : "NO");
    if (!pruned_matches)
        r.fail("the pruned (incremental) search disagrees with the cold "
               "unpruned search on the best allocation");
    else if (!same_best)
        r.fail("the search variants disagree on the best allocation");
    return r;
}

// --- multi_asic: Pareto-sparse two-ASIC DP vs the dense reference ----
//
// The scenario's silicon split evenly across two chips, allocated by
// the §6 greedy.  Gate: the sparse DP returns the dense reference's
// placement and time bit for bit (sparse_matches_dense).
Section_report run_multi_asic(const Scenario& s)
{
    const std::array<double, 2> budgets = {Scenario::asic_area / 2.0,
                                           Scenario::asic_area / 2.0};
    const auto two =
        core::allocate_two_asics(s.infos, s.lib, {.budgets = budgets});
    const auto costs = pace::build_multi_cost_model(
        s.bsbs, s.lib, s.target, two.allocations[0], two.allocations[1],
        pace::Controller_mode::list_schedule);
    const pace::Multi_pace_options opts{
        .ctrl_area_budgets = {
            std::max(0.0, budgets[0] - two.datapath_area[0]),
            std::max(0.0, budgets[1] - two.datapath_area[1])}};

    pace::Multi_pace_workspace ws;
    auto sparse = pace::multi_pace_partition(costs, opts, &ws);
    const double secs_sparse = min_seconds(
        40, [&] { sparse = pace::multi_pace_partition(costs, opts, &ws); });
    pace::Multi_pace_result dense;
    const double secs_dense = min_seconds(
        5, [&] { dense = pace::multi_pace_partition_reference(costs, opts); });
    const bool matches = sparse.placement == dense.placement &&
                         sparse.time_hybrid_ns == dense.time_hybrid_ns;

    Section_report r;
    r.json.add("n_bsbs", costs.size())
        .add("secs_dense", secs_dense)
        .add("secs_sparse", secs_sparse)
        .add("speedup", ratio(secs_dense, secs_sparse))
        .add("evals_per_sec", ratio(1.0, secs_sparse))
        .add("sparse_occupancy", sparse.occupancy())
        .add("sparse_states", sparse.dp_states_stored)
        .add("area_quantum", sparse.area_quantum_used)
        .add("traceback_bytes", sparse.traceback_bytes)
        .add("traceback_bytes_dense", dense.traceback_bytes)
        .add("sparse_matches_dense", matches);
    r.summary = util::fixed(secs_sparse * 1e3, 2) + " ms/partition (" +
                util::fixed(ratio(secs_dense, secs_sparse), 1) +
                "x dense; states " +
                util::fixed(100.0 * sparse.occupancy(), 1) +
                "% of grid; traceback " +
                std::to_string(dense.traceback_bytes) + " -> " +
                std::to_string(sparse.traceback_bytes) + " B; " +
                (matches ? "match" : "MISMATCH") + ")";
    if (!matches)
        r.fail("the sparse two-ASIC DP disagrees with the dense reference");
    return r;
}

// --- solver: every registered strategy through one Session -----------
//
// The asymmetric two-ASIC split (65/35) is the regime the pair-tree
// row bound exists for: with a generous symmetric split a best-case
// asic1-only completion matches any incumbent and no a0 row can bound
// out; with a small secondary ASIC, rows whose a0 allocation cannot
// carry the load die wholesale.  Gates: the multi_asic_bb best pair is
// the same at 1 thread as in parallel (pair_tree_bb.deterministic),
// the row bound kills at least one row, and the sparse DPs sweep fewer
// states than the dense grids they replaced.  The 1-thread over
// parallel wall-time ratio (pair_tree_bb.thread_scaling) is recorded,
// not gated: it depends on the host's core count.
Section_report run_solver(const Scenario& s)
{
    auto problem = s.problem();
    problem.asic_areas = {Scenario::asic_area * 0.65,
                          Scenario::asic_area * 0.35};
    solver::Session session(problem);

    const auto exh = session.solve("exhaustive_bb", {});
    solver::Solve_options hill_opts;
    hill_opts.extras = solver::Hill_climb_extras{};
    const auto hill = session.solve("hill_climb", hill_opts);
    const auto multi = session.solve("multi_asic_bb", {});
    const auto multi_seq = session.solve("multi_asic_bb", {.n_threads = 1});
    const auto& m = multi.multi;
    const bool deterministic =
        multi_seq.multi.datapaths == m.datapaths &&
        multi_seq.multi.partition.time_hybrid_ns ==
            m.partition.time_hybrid_ns &&
        multi_seq.multi.partition.placement == m.partition.placement;
    const double pairs_per_sec = rate(multi.space_size, multi.seconds);
    const double thread_scaling =
        multi.seconds > 0.0 ? multi_seq.seconds / multi.seconds : 0.0;

    Section_report r;
    r.json
        .add("exhaustive_bb",
             Json()
                 .add("seconds", exh.seconds)
                 .add("effective_evals_per_sec", rate(s.n_fitting, exh.seconds)))
        .add("hill_climb",
             Json()
                 .add("seconds", hill.seconds)
                 .add("n_evaluated", hill.n_evaluated)
                 .add("evals_per_sec", rate(hill.n_evaluated, hill.seconds)))
        .add("multi_asic_bb",
             Json()
                 .add("seconds", multi.seconds)
                 .add("pair_space", multi.space_size)
                 .raw("axis_points", "[" + std::to_string(m.axis_points[0]) +
                                         ", " +
                                         std::to_string(m.axis_points[1]) +
                                         "]")
                 .add("n_evaluated", multi.n_evaluated)
                 .add("n_pruned", multi.n_pruned)
                 .add("effective_pairs_per_sec", pairs_per_sec)
                 .add("best_time_ns", m.partition.time_hybrid_ns))
        .add("pair_tree_bb", Json()
                                 .add("rows_visited", m.rows_visited)
                                 .add("rows_pruned", m.rows_pruned)
                                 .add("pairs_skipped", m.pairs_skipped)
                                 .add("dp_states_swept", m.dp_states_swept)
                                 .add("dp_cells_dense", m.dp_cells_dense)
                                 .add("thread_scaling", thread_scaling)
                                 .add("deterministic", deterministic));
    r.summary = "exhaustive_bb " +
                util::fixed(rate(s.n_fitting, exh.seconds), 1) +
                " evals/s effective; hill_climb " +
                util::fixed(rate(hill.n_evaluated, hill.seconds), 1) +
                " evals/s; multi_asic_bb " + util::fixed(pairs_per_sec, 1) +
                " pairs/s effective (" + std::to_string(multi.space_size) +
                " pairs, " + std::to_string(multi.n_evaluated) + " scored, " +
                std::to_string(m.rows_pruned) + "/" +
                std::to_string(m.rows_visited) + " rows killed, " +
                std::to_string(m.dp_states_swept) + " sparse states vs " +
                std::to_string(m.dp_cells_dense) + " dense cells; " +
                util::fixed(thread_scaling, 2) + "x on " +
                std::to_string(multi.n_threads) + " threads; " +
                (deterministic ? "deterministic" : "NON-DETERMINISTIC") + ")";
    if (!deterministic)
        r.fail("the multi_asic_bb best pair depends on the thread count");
    if (m.rows_pruned <= 0)
        r.fail("the pair-tree row bound killed no rows");
    if (m.dp_states_swept >= m.dp_cells_dense)
        r.fail("the sparse multi-ASIC DP swept no fewer states than the "
               "dense grids it replaced");
    return r;
}

// --- deadline: cancel-token poll overhead and anytime quality --------
//
// exhaustive_bb unpruned on one thread (an armed token changes no work
// there, it only adds the polls) with a token whose deadline is an hour
// away, against the same solve with no token; min-of-3 each, every rep
// on a fresh Session.  Gate
// (overhead_ok): the polls cost under 1%, plus a small absolute noise
// floor so timer noise on a fast sweep cannot fail it.  The best time
// under 1/10/100 ms deadlines is informational: what a deadline buys
// depends on the host's speed.
constexpr double k_deadline_max_overhead = 0.01;
constexpr double k_deadline_noise_floor_s = 0.002;

Section_report run_deadline(const Scenario& s)
{
    const solver::Solve_options unpruned{.n_threads = 1,
                                         .use_pruning = false};
    const auto min_of3 = [&](const util::Cancel_token* token) {
        double best = std::numeric_limits<double>::infinity();
        for (int i = 0; i < 3; ++i) {
            solver::Session session(s.problem());  // cold every rep
            const auto r =
                token != nullptr
                    ? session.solve("exhaustive_bb", unpruned, *token)
                    : session.solve("exhaustive_bb", unpruned);
            best = std::min(best, r.seconds);
        }
        return best;
    };
    const double no_token = min_of3(nullptr);
    const util::Cancel_token far_deadline(3.6e6, 0, 0, {});
    const double with_token = min_of3(&far_deadline);
    const double overhead = no_token > 0.0 ? with_token / no_token - 1.0 : 0.0;
    const bool overhead_ok =
        with_token <=
        no_token * (1.0 + k_deadline_max_overhead) + k_deadline_noise_floor_s;

    solver::Session session(s.problem());
    const double untruncated =
        session.solve("exhaustive_bb", {}).best.partition.time_hybrid_ns;
    std::vector<Json> quality;
    for (const double deadline_ms : {1.0, 10.0, 100.0}) {
        const auto q = session.solve("exhaustive_bb",
                                     {.deadline_ms = deadline_ms});
        quality.push_back(
            Json()
                .add("deadline_ms", deadline_ms)
                .add("best_time_ns", q.best.partition.time_hybrid_ns)
                .add("complete", q.status == util::Solve_status::complete));
    }

    Section_report r;
    r.json.add("secs_no_token", no_token)
        .add("secs_token", with_token)
        .add("poll_overhead", overhead)
        .add("overhead_ok", overhead_ok)
        .add("untruncated_time_ns", untruncated)
        .add("quality", quality);
    r.summary = "cancel-token poll overhead " +
                util::fixed(100.0 * overhead, 2) + "% (" +
                util::fixed(no_token * 1e3, 1) + " ms -> " +
                util::fixed(with_token * 1e3, 1) + " ms)";
    if (!overhead_ok)
        r.fail("an armed-but-idle Cancel_token slowed the single-threaded "
               "sweep by more than " +
               util::fixed(100.0 * k_deadline_max_overhead, 0) + "%");
    return r;
}

// --- serve: a request burst through serve::Server --------------------
//
// The p99 budget is deliberately generous: queue depth per worker times
// the calibrated one-shot request cost, times a factor, with an
// absolute floor so fast machines cannot fail on timer noise.  It
// catches catastrophic regressions (a serialized pool, a lost wakeup,
// a per-request overhead blowup), not the absolute latency.
constexpr double k_serve_p99_budget_factor = 4.0;
constexpr double k_serve_p99_floor_ms = 50.0;

double serve_p99_budget_ms(double calib_ms, double depth_per_worker)
{
    return std::max(k_serve_p99_floor_ms,
                    k_serve_p99_budget_factor * calib_ms * depth_per_worker);
}

serve::Request hill_request(const Scenario& s, double quantum,
                            serve::Priority priority, double deadline_ms)
{
    serve::Request request;
    request.problem = s.problem(quantum);
    request.strategy = "hill_climb";
    request.priority = priority;
    request.deadline_ms = deadline_ms;
    request.options.n_threads = 1;
    return request;
}

/// The cost of one warm hill_climb request served inline (no queue).
double calibrated_request_ms(const Scenario& s)
{
    serve::Server calib({.n_workers = 0});
    calib.solve(hill_request(s, Scenario::quantum, serve::Priority::bulk, 0.0));
    return calib
        .solve(hill_request(s, Scenario::quantum, serve::Priority::bulk, 0.0))
        .solve_ms;
}

// 16 normal requests (mixed priorities, single-threaded solves so the
// two workers don't fight over cores) plus 4 with already-expired
// deadlines, which walk the degradation ladder down to the greedy
// incumbent, so the ladder is exercised on every run.  Gate (p99_ok):
// nothing shed or failed and p99 inside the budget.
Section_report run_serve(const Scenario& s)
{
    constexpr int k_normal = 16;
    constexpr int k_expired = 4;
    constexpr int k_workers = 2;
    const double calib_ms = calibrated_request_ms(s);

    serve::Server server(
        {.n_workers = k_workers, .queue_capacity = 64, .warm_start = false});
    std::vector<std::future<serve::Response>> futures;
    for (int i = 0; i < k_normal; ++i)
        futures.push_back(server.submit(hill_request(
            s, Scenario::quantum,
            i % 2 == 0 ? serve::Priority::bulk : serve::Priority::interactive,
            0.0)));
    for (int i = 0; i < k_expired; ++i)
        futures.push_back(server.submit(
            hill_request(s, Scenario::quantum, serve::Priority::bulk, 1e-3)));

    std::array<long long, 4> by_status{0, 0, 0, 0};
    std::vector<double> latencies_ms;
    for (auto& f : futures) {
        const auto response = f.get();
        ++by_status[static_cast<std::size_t>(response.status)];
        if (response.status == serve::Request_status::complete ||
            response.status == serve::Request_status::degraded)
            latencies_ms.push_back(response.queue_ms + response.solve_ms);
    }
    const auto count = [&](serve::Request_status status) {
        return by_status[static_cast<std::size_t>(status)];
    };
    const long long shed = count(serve::Request_status::shed);
    const long long failed = count(serve::Request_status::failed);
    const double p50 = serve::percentile(latencies_ms, 0.50);
    const double p99 = serve::percentile(latencies_ms, 0.99);
    const double budget = serve_p99_budget_ms(
        calib_ms, static_cast<double>(k_normal + k_expired) / k_workers);
    const bool p99_ok = failed == 0 && shed == 0 && p99 <= budget;

    Section_report r;
    r.json.add("requests", k_normal + k_expired)
        .add("workers", k_workers)
        .add("completed", count(serve::Request_status::complete))
        .add("degraded", count(serve::Request_status::degraded))
        .add("shed", shed)
        .add("failed", failed)
        .add("calib_ms", calib_ms)
        .add("p50_ms", p50)
        .add("p99_ms", p99)
        .add("p99_budget_ms", budget)
        .add("p99_ok", p99_ok);
    r.summary = std::to_string(k_normal + k_expired) + " requests on " +
                std::to_string(k_workers) + " workers, p50 " +
                util::fixed(p50, 1) + " ms, p99 " + util::fixed(p99, 1) +
                " ms (budget " + util::fixed(budget, 1) + " ms; " +
                std::to_string(count(serve::Request_status::complete)) +
                " complete, " +
                std::to_string(count(serve::Request_status::degraded)) +
                " degraded, " + std::to_string(shed) + " shed)";
    if (!p99_ok)
        r.fail("the burst missed its p99 budget (" + util::fixed(p99, 1) +
               " ms > " + util::fixed(budget, 1) +
               " ms) or shed/failed requests on an uncontended queue");
    return r;
}

// --- serve_batch: request batching on vs off -------------------------
//
// An interleaved two-family burst (same BSBs, two search quanta — two
// distinct problem keys) against a one-worker Server whose session
// pool holds one idle session.  Unbatched, the alternating families
// evict each other on every checkin, so every request builds a fresh
// session: the fresh-session reference of the batching bit-identity
// contract.  Batched, each family drains into one batch on one pinned
// session, so members after the first hit the shared Eval_cache and
// resume the checkpointed DP rows.  Gate (ok): answers bit-identical
// per request, batching at least 1.3x the unbatched wall (min-of-2
// each), cross-request DP rows observed, and the batched p99 inside
// the serve budget.
constexpr double k_serve_batch_min_speedup = 1.3;

Section_report run_serve_batch(const Scenario& s)
{
    constexpr int k_pairs = 6;  // requests per family
    constexpr int k_runs = 2;   // min-of-N
    constexpr int k_requests = 2 * k_pairs;
    const std::array<double, 2> quanta{Scenario::asic_area / 256.0,
                                       Scenario::asic_area / 320.0};

    struct Run_outcome {
        double seconds = 0.0;
        std::vector<serve::Response> responses;  // submission order
        serve::Server_stats stats;
    };
    const auto run_burst = [&](bool batching) {
        Run_outcome run;
        serve::Server server({.n_workers = 1,
                              .queue_capacity = 64,
                              .session_pool_capacity = 1,
                              .warm_start = false,
                              .batching = batching,
                              .start_paused = true});
        std::vector<std::future<serve::Response>> futures;
        for (int i = 0; i < k_pairs; ++i)
            for (const double q : quanta)
                futures.push_back(server.submit(
                    hill_request(s, q, serve::Priority::bulk, 0.0)));
        const util::Wall_timer timer;
        server.resume();
        for (auto& f : futures)
            run.responses.push_back(f.get());
        run.seconds = timer.seconds();
        run.stats = server.stats();
        return run;
    };

    Run_outcome on, off;
    for (int i = 0; i < k_runs; ++i) {
        auto batched = run_burst(true);
        auto unbatched = run_burst(false);
        if (i == 0 || batched.seconds < on.seconds)
            on = std::move(batched);
        if (i == 0 || unbatched.seconds < off.seconds)
            off = std::move(unbatched);
    }

    std::vector<double> batched_ms;
    bool identical = on.responses.size() == off.responses.size();
    for (std::size_t i = 0; i < on.responses.size(); ++i) {
        const auto& a = on.responses[i];
        batched_ms.push_back(a.queue_ms + a.solve_ms);
        if (!identical)
            break;
        const auto& b = off.responses[i];
        identical = a.status == serve::Request_status::complete &&
                    b.status == serve::Request_status::complete &&
                    a.rung_strategy == b.rung_strategy &&
                    same_tuple(a.result.best, b.result.best);
    }
    search::Eval_cache_stats combined;
    for (const auto& f : on.stats.family_cache)
        combined += f.cache;
    const double speedup = ratio(off.seconds, on.seconds);
    const long long dp_rows_cross = on.stats.dp_rows_reused_cross_request;
    const double p99 = serve::percentile(batched_ms, 0.99);
    const double budget = serve_p99_budget_ms(calibrated_request_ms(s),
                                              static_cast<double>(k_requests));

    Section_report r;
    r.json.add("requests", k_requests)
        .add("families", quanta.size())
        .add("secs_on", on.seconds)
        .add("secs_off", off.seconds)
        .add("rps_on", rate(k_requests, on.seconds))
        .add("rps_off", rate(k_requests, off.seconds))
        .add("speedup", speedup)
        .add("p50_ms", serve::percentile(batched_ms, 0.50))
        .add("p99_ms", p99)
        .add("p99_budget_ms", budget)
        .add("dp_rows_cross", dp_rows_cross)
        .add("batches", on.stats.batches)
        .add("max_batch_size", on.stats.max_batch_size)
        .add("cache_hit_rate", combined.hit_rate())
        .add("identical", identical);
    r.summary = util::fixed(speedup, 2) + "x (" +
                util::fixed(off.seconds * 1e3, 1) + " ms -> " +
                util::fixed(on.seconds * 1e3, 1) + " ms for " +
                std::to_string(k_requests) + " requests, 2 families; " +
                std::to_string(dp_rows_cross) + " cross-request DP rows, " +
                util::fixed(100.0 * combined.hit_rate(), 1) +
                "% cache hits, p99 " + util::fixed(p99, 1) + " ms)";
    if (!identical)
        r.fail("batched answers differ from the unbatched fresh-session "
               "ones");
    if (dp_rows_cross <= 0)
        r.fail("the batched burst observed no cross-request DP warm-start "
               "rows");
    if (speedup < k_serve_batch_min_speedup)
        r.fail("request batching regressed below " +
               util::fixed(k_serve_batch_min_speedup, 1) +
               "x the unbatched burst (measured " + util::fixed(speedup, 2) +
               "x)");
    if (p99 > budget)
        r.fail("the batched burst missed its p99 budget (" +
               util::fixed(p99, 1) + " ms > " + util::fixed(budget, 1) +
               " ms)");
    return r;
}

// --- dist: exhaustive_bb fanned out over loopback workers ------------
//
// In-process worker threads running single-threaded solves, so worker
// counts scale cores.  Gate (matches_local): the bit-identical best
// tuple of a local Session solve at 1, 2 and 4 workers, with every
// point of the space scored or pruned.  Wall times are informational:
// the loopback fan-out of a small space is overhead-dominated.
Section_report run_dist(const Scenario& s)
{
    const auto problem = s.problem();
    solver::Session session(problem);
    const auto local = session.solve("exhaustive_bb", {});

    bool matches = true;
    long long units = 0;
    std::vector<Json> runs;
    std::string walls;
    for (const int n_workers : {1, 2, 4}) {
        std::vector<std::thread> workers;
        dist::Coordinator_options dco;
        dco.strategy = "exhaustive_bb";
        dco.solve.n_threads = 1;
        dco.n_workers = n_workers;
        dco.on_listen = [&](std::uint16_t port) {
            for (int w = 0; w < n_workers; ++w)
                workers.emplace_back(
                    [port] { dist::run_worker("127.0.0.1", port); });
        };
        const auto d = dist::solve_distributed(problem, dco);
        for (auto& t : workers)
            t.join();
        units = d.dist.n_units;
        matches = matches && d.have_best && same_tuple(d.best, local.best) &&
                  d.n_evaluated + d.n_pruned == d.space_size;
        runs.push_back(Json()
                           .add("workers", n_workers)
                           .add("seconds", d.seconds)
                           .add("leases", d.dist.leases_granted)
                           .add("incumbent_broadcasts",
                                d.dist.incumbent_broadcasts));
        walls += (walls.empty() ? "" : "/") + util::fixed(d.seconds * 1e3, 1);
    }

    Section_report r;
    r.json.add("units", units).add("matches_local", matches).add("runs", runs);
    r.summary = "exhaustive_bb " + walls + " ms for 1/2/4 workers (" +
                std::to_string(units) + " units; " +
                (matches ? "match" : "MISMATCH") + ")";
    if (!matches)
        r.fail("the distributed solve disagrees with the local Session "
               "solve at some worker count");
    return r;
}

// --- kernels: dispatched SIMD kernels vs the scalar table ------------
//
// The two row scans the DP sweeps spend their time in: the single-ASIC
// value-sweep row (pace_row_sw + pace_row_hw over a wide row) and the
// two-ASIC dominance-merge scan (multi_shift_lane + max_reduce over a
// large SoA lane).  The calls go through the tables' function pointers
// exactly like the production sweeps, so the compiler cannot
// specialize either side away.  Gates (pace_sweep.ok, multi_merge.ok):
// the min-of-N SIMD timing beats scalar by 1.5x / 1.3x; scalar-only
// builds and CPUs waive both (simd_available = false).
constexpr double k_kernel_pace_min_speedup = 1.5;
constexpr double k_kernel_merge_min_speedup = 1.3;

Section_report run_kernels(const Scenario&)
{
    namespace simd = util::simd;
    const bool simd_available = simd::best_isa() != simd::Isa::scalar;
    const simd::Kernels& sc = simd::kernels(simd::Isa::scalar);
    const simd::Kernels& vec = simd::kernels(simd::best_isa());

    // Interleave the scalar and SIMD batches rep by rep: the two sides
    // then see the same frequency/thermal drift, so the min-of-N
    // *ratio* stays honest even when absolute timings wander.
    const auto min_of_batches = [](int reps, int inner, auto&& scalar,
                                   auto&& vector) {
        std::pair<double, double> best{
            std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()};
        for (int r = 0; r < reps; ++r) {
            const util::Wall_timer ts;
            for (int i = 0; i < inner; ++i)
                scalar();
            best.first = std::min(best.first, ts.seconds() / inner);
            const util::Wall_timer tv;
            for (int i = 0; i < inner; ++i)
                vector();
            best.second = std::min(best.second, tv.seconds() / inner);
        }
        return best;
    };

    util::Rng rng(12345);
    // One wide DP row, cache-resident like the production rows.  The
    // buffers come from an Arena for the same 64-byte alignment the
    // production rows get: a 16-byte-aligned std::vector makes every
    // other 32-byte access split a cache line and the measured ratio
    // flip-flops with the allocator's mood.
    constexpr std::size_t k_width = 1024;
    util::Arena arena;
    const auto alloc_doubles = [&](std::size_t n) {
        return static_cast<double*>(arena.alloc(n * sizeof(double)));
    };
    double* cur = alloc_doubles(2 * k_width);
    double* nxt = alloc_doubles(2 * k_width);
    for (std::size_t i = 0; i < 2 * k_width; ++i)
        cur[i] = rng.chance(0.15) ? -std::numeric_limits<double>::infinity()
                                  : rng.uniform_real(0.0, 1.0e6);
    constexpr std::size_t k_qa = 16;
    const auto pace_pass = [&](const simd::Kernels& k) {
        k.pace_row_sw(cur, nxt, k_width);
        k.pace_row_hw(cur, nxt + k_qa * 2, k_width - k_qa, 123.5, 150.25);
    };
    const auto [pace_scalar, pace_simd] = min_of_batches(
        9, 200, [&] { pace_pass(sc); }, [&] { pace_pass(vec); });

    constexpr std::size_t k_states = 4096;  // one big SoA lane
    auto* a0 = static_cast<std::int32_t*>(
        arena.alloc(k_states * sizeof(std::int32_t)));
    auto* a1 = static_cast<std::int32_t*>(
        arena.alloc(k_states * sizeof(std::int32_t)));
    double* value = alloc_doubles(k_states);
    std::int32_t run0 = 0;
    for (std::size_t i = 0; i < k_states; ++i) {
        run0 += rng.uniform_int(0, 2);
        a0[i] = run0;
        a1[i] = rng.uniform_int(0, 1 << 20);
        value[i] = rng.uniform_real(0.0, 1.0e6);
    }
    auto* key = static_cast<std::uint64_t*>(
        arena.alloc(k_states * sizeof(std::uint64_t)));
    double* val = alloc_doubles(k_states);
    // Caps that nothing overflows: the steady-state shape of a
    // mid-sweep merge (the overflow tails are covered by the
    // equivalence tests, not timed here).
    const std::int32_t cap0 = run0 + 64;
    const std::int32_t cap1 = (1 << 20) + 64;
    const auto merge_pass = [&](const simd::Kernels& k) {
        k.multi_shift_lane(a0, a1, value, k_states, 3, 5, 42.0, cap0, cap1,
                           key, val);
        volatile double sink = k.max_reduce(val, k_states);
        (void)sink;
    };
    const auto [merge_scalar, merge_simd] = min_of_batches(
        9, 200, [&] { merge_pass(sc); }, [&] { merge_pass(vec); });

    const double pace_speedup = ratio(pace_scalar, pace_simd);
    const double merge_speedup = ratio(merge_scalar, merge_simd);
    const bool pace_ok =
        !simd_available || pace_speedup >= k_kernel_pace_min_speedup;
    const bool merge_ok =
        !simd_available || merge_speedup >= k_kernel_merge_min_speedup;
    const auto kernel_json = [](double scalar, double vector, double speedup,
                                double min_speedup, bool ok) {
        return Json()
            .add("secs_scalar", scalar)
            .add("secs_simd", vector)
            .add("speedup", speedup)
            .add("min_speedup", min_speedup)
            .add("ok", ok);
    };

    Section_report r;
    r.json.add("isa", simd::isa_name(simd::active_isa()))
        .add("simd_available", simd_available)
        .add("pace_sweep", kernel_json(pace_scalar, pace_simd, pace_speedup,
                                       k_kernel_pace_min_speedup, pace_ok))
        .add("multi_merge",
             kernel_json(merge_scalar, merge_simd, merge_speedup,
                         k_kernel_merge_min_speedup, merge_ok));
    r.summary = std::string(simd::isa_name(simd::active_isa())) + ": " +
                (simd_available
                     ? util::fixed(pace_speedup, 2) + "x pace sweep, " +
                           util::fixed(merge_speedup, 2) +
                           "x multi merge vs scalar"
                     : std::string("scalar-only build/CPU, gates waived"));
    if (!pace_ok)
        r.fail("SIMD pace-sweep kernels regressed below " +
               util::fixed(k_kernel_pace_min_speedup, 1) +
               "x scalar (measured " + util::fixed(pace_speedup, 2) + "x)");
    if (!merge_ok)
        r.fail("SIMD dominance-merge kernels regressed below " +
               util::fixed(k_kernel_merge_min_speedup, 1) +
               "x scalar (measured " + util::fixed(merge_speedup, 2) + "x)");
    return r;
}

struct Section {
    std::string_view name;
    Section_report (*run)(const Scenario&);
};

/// Run order.  Each section is self-contained: it reads only the
/// scenario, never another section's measurements.
constexpr Section k_sections[] = {
    {"search", run_search},           {"multi_asic", run_multi_asic},
    {"solver", run_solver},           {"deadline", run_deadline},
    {"serve", run_serve},             {"serve_batch", run_serve_batch},
    {"dist", run_dist},               {"kernels", run_kernels},
};

}  // namespace

int write_bench_report(const std::string& path, std::ostream& log,
                       std::ostream& err)
{
    std::error_code ignored;
    const bool existed = std::filesystem::exists(path, ignored);
    try {
        // Probe writability first (append mode: no truncation) so an
        // unwritable path fails fast, yet a measurement failure later
        // cannot clobber a previously written good report.
        {
            std::ofstream probe(path, std::ios::app);
            if (!probe) {
                err << "error: cannot write " << path << "\n";
                return 1;
            }
        }
        const Scenario s;
        log << "bench gates over " << s.n_fitting << " of " << s.space_size
            << " allocations\n";
        std::string json =
            "{\n  \"scenario\": " +
            Json()
                .add("n_bsbs", Scenario::n_bsbs)
                .add("ops_per_bsb", Scenario::ops_per_bsb)
                .add("asic_area", Scenario::asic_area)
                .add("max_count_per_type", Scenario::max_count_per_type)
                .add("seed", Scenario::seed)
                .add("space_size", s.space_size)
                .add("n_evaluated", s.n_fitting)
                .str();
        bool all_ok = true;
        for (const auto& section : k_sections) {
            auto report = section.run(s);
            const bool ok = report.failure.empty();
            report.json.add("ok", ok);
            json += ",\n  \"" + std::string(section.name) +
                    "\": " + report.json.str();
            log << "  " << section.name
                << std::string(12 - std::min<std::size_t>(
                                         12, section.name.size()),
                               ' ')
                << report.summary << (ok ? "" : "  [FAILED]") << "\n";
            if (!ok)
                err << "error: bench section " << section.name
                    << " failed: " << report.failure << "\n";
            all_ok = all_ok && ok;
        }
        json += std::string(",\n  \"ok\": ") + (all_ok ? "true" : "false") +
                "\n}\n";

        std::ofstream out(path);
        out << json;
        out.flush();
        if (!out) {
            err << "error: failed writing " << path << "\n";
            return 1;
        }
        log << "wrote " << path << "\n";
        return all_ok ? 0 : 1;
    }
    catch (const std::exception& e) {
        // Don't leave a zero-byte probe-created file behind.
        if (!existed)
            std::filesystem::remove(path, ignored);
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

}  // namespace lycos::gates
