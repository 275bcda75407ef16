// Tests for the lycos::solver session API: the strategy registry, the
// reused-vs-fresh Session equivalence contract (bit-identical results
// for any thread count), caches over shared vs privately computed
// invariants, and the multi_asic_bb determinism contract (best pair
// independent of chunking, equal to a brute-force pair scan).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "apps/apps.hpp"
#include "apps/random_app.hpp"
#include "core/allocator.hpp"
#include "core/analysis.hpp"
#include "core/restrictions.hpp"
#include "estimate/storage.hpp"
#include "hw/target.hpp"
#include "pace/multi_asic.hpp"
#include "search/alloc_space.hpp"
#include "search/eval_cache.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace lc = lycos::core;
namespace lh = lycos::hw;
namespace lb = lycos::bsb;
namespace lse = lycos::search;
namespace lso = lycos::solver;
namespace lp = lycos::pace;
using lh::Op_kind;

namespace {

lh::Hw_library small_library()
{
    lh::Hw_library lib;
    lib.add({"adder", {Op_kind::add}, 100.0, 1});
    lib.add({"multiplier", {Op_kind::mul}, 500.0, 2});
    return lib;
}

std::vector<lb::Bsb> small_app()
{
    std::vector<lb::Bsb> bsbs;
    lb::Bsb hot;
    for (int i = 0; i < 3; ++i)
        hot.graph.add_op(Op_kind::mul);
    for (int i = 0; i < 2; ++i)
        hot.graph.add_op(Op_kind::add);
    hot.profile = 100.0;
    bsbs.push_back(std::move(hot));
    lb::Bsb cold;
    cold.graph.add_op(Op_kind::add);
    cold.graph.add_op(Op_kind::add);
    cold.profile = 2.0;
    bsbs.push_back(std::move(cold));
    return bsbs;
}

void expect_same_tuple(const lse::Evaluation& a, const lse::Evaluation& b,
                       const char* what)
{
    EXPECT_EQ(a.datapath, b.datapath) << what;
    EXPECT_EQ(a.partition.time_hybrid_ns, b.partition.time_hybrid_ns)
        << what;
    EXPECT_EQ(a.datapath_area, b.datapath_area) << what;
}

lso::Problem random_problem(lycos::util::Rng& rng,
                            const lh::Hw_library& lib,
                            std::vector<lb::Bsb>& bsbs_store,
                            lh::Target& target_store, lc::Rmap& bounds_store)
{
    lycos::apps::Random_app_params params;
    params.n_bsbs = rng.uniform_int(2, 5);
    params.min_ops = 4;
    params.max_ops = 16;
    bsbs_store = lycos::apps::random_bsbs(rng, params);
    target_store =
        lh::make_default_target(500.0 * rng.uniform_int(3, 12));

    bounds_store = {};
    const int n_dims = rng.uniform_int(2, 4);
    for (int d = 0; d < n_dims; ++d)
        bounds_store.set(
            rng.uniform_int(0, static_cast<int>(lib.size()) - 1),
            rng.uniform_int(1, 2));

    lso::Problem p;
    p.bsbs = bsbs_store;
    p.lib = &lib;
    p.target = target_store;
    p.restrictions = bounds_store;
    p.area_quantum = target_store.asic.total_area / 64.0;
    return p;
}

/// The best two-ASIC pair by a flat scan over every pair of fitting
/// allocations: uncached cost models (build_cost_model per point, the
/// two halves of build_multi_cost_model), one full partition per pair,
/// the first (time, area sum) minimum in a0-major order.  It shares
/// nothing with the engine's Session, caches or axis prep.
struct Pair_scan {
    std::array<lc::Rmap, 2> datapaths;
    double time = 0.0;
    double area_sum = 0.0;
    std::vector<lp::Placement> placement;
    long long n_pairs = 0;
};

Pair_scan flat_pair_scan(const lso::Problem& p,
                         const std::array<double, 2>& budgets)
{
    const lse::Alloc_space space(*p.lib, p.restrictions);
    std::array<std::vector<lc::Rmap>, 2> axis;
    std::array<std::vector<std::vector<lp::Bsb_cost>>, 2> point_costs;
    for (std::size_t k = 0; k < 2; ++k)
        space.for_each(budgets[k], [&](const lc::Rmap& a) {
            axis[k].push_back(a);
            point_costs[k].push_back(lp::build_cost_model(
                p.bsbs, *p.lib, p.target, a, p.ctrl_mode, p.storage,
                p.scheduler));
            return true;
        });
    Pair_scan best;
    bool have = false;
    std::vector<lp::Multi_bsb_cost> costs(p.bsbs.size());
    for (std::size_t i = 0; i < axis[0].size(); ++i) {
        for (std::size_t j = 0; j < axis[1].size(); ++j) {
            const auto& a0 = axis[0][i];
            const auto& a1 = axis[1][j];
            for (std::size_t b = 0; b < costs.size(); ++b) {
                costs[b].t_sw = point_costs[0][i][b].t_sw;
                costs[b].hw = {point_costs[0][i][b], point_costs[1][j][b]};
            }
            lp::Multi_pace_options mo;
            mo.ctrl_area_budgets = {budgets[0] - a0.area(*p.lib),
                                    budgets[1] - a1.area(*p.lib)};
            mo.area_quantum = p.area_quantum;
            const auto r = lp::multi_pace_partition(costs, mo);
            const double area_sum = a0.area(*p.lib) + a1.area(*p.lib);
            if (!have || r.time_hybrid_ns < best.time ||
                (r.time_hybrid_ns == best.time && area_sum < best.area_sum)) {
                best.datapaths = {a0, a1};
                best.time = r.time_hybrid_ns;
                best.area_sum = area_sum;
                best.placement = r.placement;
                have = true;
            }
        }
    }
    best.n_pairs = static_cast<long long>(axis[0].size()) *
                   static_cast<long long>(axis[1].size());
    return best;
}

/// A Table-1 app as the two-ASIC problem the command-line flow and the
/// benchmark solve: restrictions from the analysis, search quantum
/// area / 512, budgets `split` and 1 - split of `area`.  problem()
/// points into the fixture, which must outlive every Session built
/// from it.
struct App_two_asic {
    lycos::apps::App app;
    lh::Hw_library lib = lh::make_default_library();
    lh::Target target;
    lc::Rmap restrictions;
    std::array<double, 2> budgets;

    App_two_asic(lycos::apps::App a, double area, double split)
        : app(std::move(a)), target(lh::make_default_target(area)),
          restrictions(lc::compute_restrictions(
              lc::analyze(app.bsbs, lib, target.gates), lib)),
          budgets{area * split, area * (1.0 - split)}
    {
    }

    lso::Problem problem() const
    {
        lso::Problem p;
        p.bsbs = app.bsbs;
        p.lib = &lib;
        p.target = target;
        p.restrictions = restrictions;
        p.area_quantum = target.asic.total_area / 512.0;
        p.asic_areas = budgets;
        return p;
    }
};

void expect_same_pair(const lso::Solve_result& a, const lso::Solve_result& b,
                      const std::string& what)
{
    EXPECT_EQ(a.multi.datapaths, b.multi.datapaths) << what;
    EXPECT_EQ(a.multi.partition.time_hybrid_ns,
              b.multi.partition.time_hybrid_ns)
        << what;
    EXPECT_EQ(a.multi.datapath_area[0] + a.multi.datapath_area[1],
              b.multi.datapath_area[0] + b.multi.datapath_area[1])
        << what;
    EXPECT_EQ(a.multi.partition.placement, b.multi.partition.placement)
        << what;
}

}  // namespace

TEST(Registry, names_and_lookup)
{
    const auto all = lso::strategies();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0]->name(), "exhaustive_bb");
    EXPECT_EQ(all[1]->name(), "hill_climb");
    EXPECT_EQ(all[2]->name(), "multi_asic_bb");
    for (const auto* s : all) {
        EXPECT_EQ(lso::find_strategy(s->name()), s);
        EXPECT_FALSE(s->description().empty());
    }
    EXPECT_EQ(lso::find_strategy("simulated_annealing"), nullptr);
}

TEST(Session, validates_problem_and_strategy_names)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();

    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = nullptr;
    p.target = target;
    EXPECT_THROW(lso::Session{p}, std::invalid_argument);

    p.lib = &lib;
    lso::Session session(p);
    EXPECT_THROW(session.solve("no_such_strategy"), std::invalid_argument);

    // Mismatched extras are a caller bug, not a silent default.
    lso::Solve_options wrong;
    wrong.extras = lso::Multi_asic_extras{};
    EXPECT_THROW(session.solve("hill_climb", wrong), std::invalid_argument);
    wrong.extras = lso::Hill_climb_extras{};
    EXPECT_THROW(session.solve("exhaustive_bb", wrong),
                 std::invalid_argument);
}

TEST(Session, auto_pick_follows_exhaustive_limit)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();
    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 3);
    p.area_quantum = 1.0;

    lso::Session session(p);
    EXPECT_EQ(session.space_size(), 12);
    EXPECT_EQ(session.auto_strategy(), "exhaustive_bb");
    EXPECT_EQ(session.solve().strategy, "exhaustive_bb");
    session.exhaustive_limit = 0;
    EXPECT_EQ(session.auto_strategy(), "hill_climb");
    EXPECT_EQ(session.solve().strategy, "hill_climb");
}

TEST(Session, rescore_runs_on_warm_cache)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(3000.0);
    const auto bsbs = small_app();
    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 3);
    p.area_quantum = target.asic.total_area / 16.0;

    lso::Session session(p);
    const auto r = session.solve("exhaustive_bb", {});
    EXPECT_GT(r.cache_stats.hits + r.cache_stats.misses, 0);

    // The fine re-score hits the warm session cache: no new schedules.
    const auto misses_before = session.cache().stats().misses;
    const auto rescored = session.rescore(r.best.datapath);
    EXPECT_EQ(session.cache().stats().misses, misses_before);

    // And it equals a from-scratch fine evaluation bit for bit.
    lse::Eval_context fine = session.context();
    fine.area_quantum = 0.0;
    const auto uncached = lse::evaluate_allocation(fine, r.best.datapath);
    EXPECT_EQ(rescored.partition.time_hybrid_ns,
              uncached.partition.time_hybrid_ns);
    EXPECT_EQ(rescored.datapath_area, uncached.datapath_area);
}

// A reused Session (warm shared cache, warm DP workspaces, one thread
// pool) answers every solve exactly like a fresh Session per solve,
// for any thread count.
TEST(Session, reused_matches_fresh_any_thread_count)
{
    const auto lib = lh::make_default_library();
    lso::Hill_climb_extras hill;
    hill.n_restarts = 6;
    hill.max_steps = 32;
    hill.seed = 7;
    for (const std::uint64_t seed : {91u, 92u}) {
        lycos::util::Rng rng(seed);
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<lb::Bsb> bsbs;
            lh::Target target;
            lc::Rmap bounds;
            const auto p = random_problem(rng, lib, bsbs, target, bounds);

            lso::Session reused(p);
            for (int n_threads : {1, 2, 5}) {
                const lso::Solve_options exh{.n_threads = n_threads};
                const auto exh_warm = reused.solve("exhaustive_bb", exh);
                const auto exh_cold =
                    lso::Session(p).solve("exhaustive_bb", exh);
                expect_same_tuple(exh_warm.best, exh_cold.best,
                                  "exhaustive_bb");
                EXPECT_EQ(exh_warm.space_size, exh_cold.space_size);

                lso::Solve_options climb{.n_threads = n_threads};
                climb.extras = hill;
                const auto hill_warm = reused.solve("hill_climb", climb);
                const auto hill_cold =
                    lso::Session(p).solve("hill_climb", climb);
                expect_same_tuple(hill_warm.best, hill_cold.best,
                                  "hill_climb");
                // The evaluated/proxy-pruned split depends on cache
                // warmth; the considered-neighbour total is
                // trajectory-determined and must match.
                EXPECT_EQ(hill_warm.n_evaluated + hill_warm.n_pruned,
                          hill_cold.n_evaluated + hill_cold.n_pruned);
            }
        }
    }
}

// Session-owned shared invariants vs a cache recomputing them: the
// memoized per-BSB costs must be bit-identical.
TEST(Invariants, shared_and_private_caches_agree_bitwise)
{
    const auto lib = lh::make_default_library();
    lycos::util::Rng rng(31);
    lycos::apps::Random_app_params params;
    params.n_bsbs = 5;
    params.min_ops = 6;
    params.max_ops = 24;
    const auto bsbs = lycos::apps::random_bsbs(rng, params);
    const auto target = lh::make_default_target(6000.0);
    const lse::Eval_context ctx{bsbs, lib, target,
                                lp::Controller_mode::list_schedule, 1.0};

    const auto shared =
        std::make_shared<const lse::Eval_invariants>(ctx);
    lse::Eval_cache with_shared(ctx, 0, shared);
    lse::Eval_cache without(ctx);
    EXPECT_EQ(with_shared.invariants().get(), shared.get());
    EXPECT_NE(without.invariants().get(), shared.get());

    std::vector<int> counts(lib.size(), 0);
    for (int c0 = 0; c0 <= 2; ++c0)
        for (int c1 = 0; c1 <= 2; ++c1) {
            counts[0] = c0;
            counts[1] = c1;
            for (std::size_t b = 0; b < bsbs.size(); ++b) {
                const auto& a = with_shared.cost_one(b, counts);
                const auto& e = without.cost_one(b, counts);
                EXPECT_EQ(a.t_hw, e.t_hw);
                EXPECT_EQ(a.ctrl_area, e.ctrl_area);
                EXPECT_EQ(a.t_sw, e.t_sw);
                EXPECT_EQ(a.comm, e.comm);
                EXPECT_EQ(a.save_prev, e.save_prev);
            }
        }
}

// multi_asic_bb determinism + correctness: the best pair tuple is
// independent of thread count / chunking / pruning, and matches a
// brute-force scan over every fitting allocation pair.
TEST(MultiAsicBb, deterministic_and_matches_brute_force)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(2000.0);
    const auto bsbs = small_app();

    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 2);
    p.area_quantum = 1.0;

    lso::Session session(p);
    const auto reference = session.solve(
        "multi_asic_bb", {.n_threads = 1, .use_pruning = false});
    ASSERT_TRUE(reference.multi.active);
    EXPECT_EQ(reference.n_evaluated, reference.space_size);
    EXPECT_EQ(reference.n_pruned, 0);
    EXPECT_EQ(reference.multi.pairs_skipped, 0);
    EXPECT_EQ(reference.multi.rows_visited, reference.multi.axis_points[0]);

    for (int n_threads : {1, 2, 5}) {
        for (bool use_pruning : {false, true}) {
            for (bool use_row_bound : {false, true}) {
                lso::Solve_options o;
                o.n_threads = n_threads;
                o.use_pruning = use_pruning;
                o.extras =
                    lso::Multi_asic_extras{.use_row_bound = use_row_bound};
                const auto r = session.solve("multi_asic_bb", o);
                EXPECT_EQ(r.multi.datapaths, reference.multi.datapaths)
                    << n_threads << " threads, pruning " << use_pruning
                    << ", row bound " << use_row_bound;
                EXPECT_EQ(r.multi.partition.time_hybrid_ns,
                          reference.multi.partition.time_hybrid_ns);
                EXPECT_EQ(r.multi.partition.placement,
                          reference.multi.partition.placement);
                EXPECT_EQ(r.multi.datapath_area,
                          reference.multi.datapath_area);
                if (use_pruning)
                    EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size);
            }
        }
    }

    // Brute force: every pair of fitting allocations, row-major, with
    // uncached cost models — the search's memoized costs must lead to
    // the identical best pair.
    const double half = target.asic.total_area / 2.0;
    const auto scan = flat_pair_scan(p, {half, half});
    ASSERT_EQ(scan.n_pairs, reference.space_size);
    EXPECT_EQ(reference.multi.datapaths, scan.datapaths);
    EXPECT_EQ(reference.multi.partition.time_hybrid_ns, scan.time);

    // Seeded random problems at an even, an asymmetric and a starved-
    // secondary split, against their 1-thread unpruned walk.  Workers
    // claim rows dynamically and share one incumbent, so which worker
    // finds which tie varies run to run.  The library carries a twin
    // of its adder, one of each allowed: a0 allocations that differ
    // only in which adder they hold tie exactly in (time, area) but
    // lie in different rows, so the reduce's pair-index tie-break is
    // what picks the answer.
    auto dlib = lh::make_default_library();
    const auto adder = *dlib.find("adder");
    const auto twin = dlib.add({"adder_twin", {Op_kind::add, Op_kind::neg},
                                dlib[adder].area,
                                dlib[adder].latency_cycles});
    lycos::util::Rng rng(1998);
    for (int trial = 0; trial < 12; ++trial) {
        // Four op kinds whose units fit the targets, so hardware pays
        // on most draws.
        lycos::apps::Random_app_params params;
        params.n_bsbs = rng.uniform_int(2, 5);
        params.min_ops = 4;
        params.max_ops = 16;
        params.kinds = {Op_kind::add, Op_kind::sub, Op_kind::mul,
                        Op_kind::cmp_lt};
        const auto rbsbs = lycos::apps::random_bsbs(rng, params);
        lso::Problem rp;
        rp.bsbs = rbsbs;
        rp.lib = &dlib;
        rp.target = lh::make_default_target(500.0 * rng.uniform_int(4, 14));
        rp.restrictions.set(adder, 1);
        rp.restrictions.set(twin, 1);
        for (const char* unit : {"subtractor", "multiplier", "comparator"})
            rp.restrictions.set(*dlib.find(unit), rng.uniform_int(1, 2));
        rp.area_quantum = rp.target.asic.total_area / 64.0;
        for (const double split : {0.5, 0.65, 0.9}) {
            const double area = rp.target.asic.total_area;
            rp.asic_areas = {area * split, area * (1.0 - split)};
            lso::Session rs(rp);
            lso::Solve_options unpruned;
            unpruned.n_threads = 1;
            unpruned.use_pruning = false;
            const auto ref = rs.solve("multi_asic_bb", unpruned);
            ASSERT_TRUE(ref.have_best);
            for (int n_threads : {1, 2, 3, 8}) {
                lso::Solve_options o;
                o.n_threads = n_threads;
                const auto r = rs.solve("multi_asic_bb", o);
                EXPECT_EQ(r.multi.datapaths, ref.multi.datapaths)
                    << "trial " << trial << ", split " << split << ", "
                    << n_threads << " threads";
                EXPECT_EQ(r.multi.partition.time_hybrid_ns,
                          ref.multi.partition.time_hybrid_ns);
                EXPECT_EQ(r.multi.partition.placement,
                          ref.multi.partition.placement);
                EXPECT_EQ(r.multi.datapath_area, ref.multi.datapath_area);
                EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size);
                // Real-valued profiles: the exact-sums guard keeps the
                // dominance filter off.
                EXPECT_EQ(r.multi.axis_live, r.multi.axis_points);
            }
        }
    }
}

// The dominance filter against an oracle that shares nothing with the
// engine: seeded random problems whose profiles are rounded to whole
// numbers, so every time field is an integer number of nanoseconds and
// the exact-sums guard holds.  The walk then pairs up undominated
// points only; its best pair, time, area sum and placement must equal
// the flat pair scan's on every thread count.  The twin adder makes
// equal-area, equal-cost points certain: the lower-index one must be
// the one kept, or exact ties move.  Trials cycle through the
// controller models.  In the default one a BSB's controller area and
// hardware time both follow its schedule length, so a rule that
// compared controller areas alone would pass there; under the ECA
// model, whose controller area does not depend on the allocation, it
// loses answers.  The storage model adds register and interconnect
// area that does depend on it.
TEST(MultiAsicBb, dominance_filter_matches_flat_pair_scan)
{
    auto dlib = lh::make_default_library();
    const auto adder = *dlib.find("adder");
    const auto twin = dlib.add({"adder_twin", {Op_kind::add, Op_kind::neg},
                                dlib[adder].area,
                                dlib[adder].latency_cycles});
    const std::array<double, 3> splits{0.5, 0.65, 0.9};
    std::array<bool, 3> filtered{};
    // Registers and multiplexers heavy enough that controller budgets
    // bind.
    const lycos::estimate::Storage_model storage{.reg_area = 400.0,
                                                 .mux_input_area = 60.0};
    lycos::util::Rng rng(2026);
    for (int trial = 0; trial < 18; ++trial) {
        lycos::apps::Random_app_params params;
        params.n_bsbs = rng.uniform_int(2, 5);
        params.min_ops = 4;
        params.max_ops = 16;
        params.kinds = {Op_kind::add, Op_kind::sub, Op_kind::mul,
                        Op_kind::cmp_lt};
        auto rbsbs = lycos::apps::random_bsbs(rng, params);
        for (auto& b : rbsbs)
            b.profile = std::round(b.profile);
        lso::Problem rp;
        rp.bsbs = rbsbs;
        rp.lib = &dlib;
        rp.target = lh::make_default_target(500.0 * rng.uniform_int(4, 14));
        rp.restrictions.set(adder, 1);
        rp.restrictions.set(twin, 1);
        for (const char* unit : {"subtractor", "multiplier", "comparator"})
            rp.restrictions.set(*dlib.find(unit), rng.uniform_int(1, 2));
        rp.area_quantum = rp.target.asic.total_area / 64.0;
        rp.ctrl_mode = trial % 3 == 1 ? lp::Controller_mode::optimistic_eca
                                      : lp::Controller_mode::list_schedule;
        rp.storage = trial % 3 == 2 ? &storage : nullptr;
        for (std::size_t s = 0; s < splits.size(); ++s) {
            const double area = rp.target.asic.total_area;
            rp.asic_areas = {area * splits[s], area * (1.0 - splits[s])};
            const auto scan = flat_pair_scan(rp, rp.asic_areas);
            lso::Session rs(rp);
            for (int n_threads : {1, 2, 3, 8}) {
                const auto r =
                    rs.solve("multi_asic_bb", {.n_threads = n_threads});
                const std::string what =
                    "trial " + std::to_string(trial) + ", split " +
                    std::to_string(splits[s]) + ", " +
                    std::to_string(n_threads) + " threads";
                EXPECT_EQ(r.multi.datapaths, scan.datapaths) << what;
                EXPECT_EQ(r.multi.partition.time_hybrid_ns, scan.time)
                    << what;
                EXPECT_EQ(r.multi.datapath_area[0] +
                              r.multi.datapath_area[1],
                          scan.area_sum)
                    << what;
                EXPECT_EQ(r.multi.partition.placement, scan.placement)
                    << what;
                EXPECT_EQ(r.space_size, scan.n_pairs) << what;
                EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size) << what;
                EXPECT_LE(r.multi.pairs_dominated, r.n_pruned) << what;
                EXPECT_EQ(r.multi.rows_visited, r.multi.axis_points[0])
                    << what;
                if (r.multi.axis_live[0] < r.multi.axis_points[0] ||
                    r.multi.axis_live[1] < r.multi.axis_points[1])
                    filtered[s] = true;
            }
        }
    }
    for (std::size_t s = 0; s < splits.size(); ++s)
        EXPECT_TRUE(filtered[s]) << "the filter never fired at split "
                                 << splits[s];
}

// The filter is off under a token, so a token-free solve and one under
// a no-op token walk different pairs; their answers must still agree
// bit for bit.  serve::Server runs every solve under a token, and its
// replay check (serve::replay_rung) runs without one.  The problems
// are the benchmark's two-ASIC set and serve_mix's hal request.
TEST(MultiAsicBb, token_path_matches_token_free_path)
{
    struct Case {
        lycos::apps::App (*make)();
        double area;  // 0 = the app's preset
        double split;
    };
    for (const Case c : {Case{lycos::apps::make_man, 0.0, 0.5},
                         Case{lycos::apps::make_straight, 0.0, 0.5},
                         Case{lycos::apps::make_eigen, 7000.0, 0.5},
                         Case{lycos::apps::make_eigen, 7000.0, 0.65},
                         Case{lycos::apps::make_hal, 7000.0, 0.5}}) {
        auto app = c.make();
        const double area = c.area > 0.0 ? c.area : app.asic_area;
        const App_two_asic fixture(std::move(app), area, c.split);
        const std::string name =
            fixture.app.name + "@" + std::to_string(area);
        lso::Session session(fixture.problem());
        for (int n_threads : {1, 4}) {
            const auto free = session.solve("multi_asic_bb",
                                            {.n_threads = n_threads});
            const lycos::util::Cancel_token token;
            const auto held = session.solve(
                "multi_asic_bb", {.n_threads = n_threads}, token);
            const std::string what =
                name + ", " + std::to_string(n_threads) + " threads";
            ASSERT_EQ(free.status, lycos::util::Solve_status::complete)
                << what;
            ASSERT_EQ(held.status, lycos::util::Solve_status::complete)
                << what;
            expect_same_pair(held, free, what);
            // The token-free walk filtered; the one under a token did
            // not.
            EXPECT_LT(free.multi.axis_live[0], free.multi.axis_points[0])
                << what;
            EXPECT_GT(free.multi.pairs_dominated, 0) << what;
            EXPECT_EQ(held.multi.axis_live, held.multi.axis_points) << what;
            EXPECT_EQ(held.multi.pairs_dominated, 0) << what;
        }
    }
}

// Each soundness guard turns the filter off for its problem, and the
// answer stays the unpruned walk's.  The base problem is serve_mix's
// hal request, where the filter fires.
TEST(MultiAsicBb, dominance_guards_fall_back)
{
    const App_two_asic hal(lycos::apps::make_hal(), 7000.0, 0.5);
    const auto solve_both = [](const lso::Problem& p, const char* what,
                               bool expect_filter) {
        lso::Session session(p);
        const auto pruned = session.solve("multi_asic_bb", {.n_threads = 2});
        const auto unpruned = session.solve(
            "multi_asic_bb", {.n_threads = 1, .use_pruning = false});
        expect_same_pair(pruned, unpruned, what);
        EXPECT_EQ(unpruned.multi.axis_live, unpruned.multi.axis_points)
            << what;
        if (expect_filter) {
            EXPECT_LT(pruned.multi.axis_live[0],
                      pruned.multi.axis_points[0])
                << what;
            EXPECT_GT(pruned.multi.pairs_dominated, 0) << what;
        }
        else {
            EXPECT_EQ(pruned.multi.axis_live, pruned.multi.axis_points)
                << what;
            EXPECT_EQ(pruned.multi.pairs_dominated, 0) << what;
        }
    };
    solve_both(hal.problem(), "base", true);

    // One quantum: the automatic quantum varies per pair...
    auto p = hal.problem();
    p.area_quantum = 0.0;
    solve_both(p, "area_quantum = 0", false);
    // ...and so does a re-quantized grid (2,049 x 2,049 cells here).
    p = hal.problem();
    p.area_quantum = 7000.0 / 4096.0;
    solve_both(p, "grid past max_dp_cells", false);

    // Exact sums: a profile of 1.01 makes hardware, software and bus
    // times fractional.  A profile of 1.5 does not (the default
    // target's cycles are 100 and 40 ns), so the filter stays on there.
    auto bsbs = hal.app.bsbs;
    bsbs[1].profile = 1.01;
    p = hal.problem();
    p.bsbs = bsbs;
    solve_both(p, "a profile of 1.01", false);
    bsbs[1].profile = 1.5;
    solve_both(p, "a profile of 1.5", true);

    // Exact sums: a half-gate adder makes data-path areas fractional.
    lh::Hw_library odd;
    for (auto type : hal.lib.types()) {
        if (type.name == "adder")
            type.area = 180.5;
        odd.add(type);
    }
    p = hal.problem();
    p.lib = &odd;
    solve_both(p, "an adder of 180.5 gates", false);
}

// The pair_limit is a *soft* guard now: a pair space beyond it walks
// exactly the first pair_limit pairs (a0-major order) for any thread
// count and reports the remainder as pairs_skipped — the best pair is
// the brute-force best of that prefix, nothing throws, and the status
// says `budget`, never `complete`.
TEST(MultiAsicBb, pair_limit_truncates_deterministically)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(2000.0);
    const auto bsbs = small_app();

    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 2);
    p.area_quantum = 1.0;

    lso::Session session(p);
    const auto full = session.solve("multi_asic_bb", {.n_threads = 1});
    ASSERT_GT(full.space_size, 4);
    EXPECT_EQ(full.multi.pairs_skipped, 0);
    EXPECT_EQ(full.status, lycos::util::Solve_status::complete);
    const long long f1 = full.multi.axis_points[1];

    // A limit cutting mid-row: the walked prefix is pairs [0, limit).
    const long long limit = f1 + f1 / 2 + 1;
    lso::Solve_options opts;
    opts.n_threads = 1;
    opts.extras = lso::Multi_asic_extras{.pair_limit = limit};
    const auto prefix = session.solve("multi_asic_bb", opts);
    EXPECT_EQ(prefix.multi.pairs_skipped, full.space_size - limit);
    EXPECT_EQ(prefix.n_evaluated + prefix.n_pruned, limit);
    EXPECT_EQ(prefix.space_size, full.space_size);
    EXPECT_EQ(prefix.status, lycos::util::Solve_status::budget);

    // Brute force over exactly that prefix.
    const double half = target.asic.total_area / 2.0;
    std::vector<lc::Rmap> points;
    const lse::Alloc_space space(lib, p.restrictions);
    space.for_each(half, [&](const lc::Rmap& a) {
        points.push_back(a);
        return true;
    });
    bool have = false;
    double best_time = 0.0;
    double best_area = 0.0;
    std::array<lc::Rmap, 2> best_pair;
    for (long long idx = 0; idx < limit; ++idx) {
        const auto& a0 = points[static_cast<std::size_t>(idx / f1)];
        const auto& a1 = points[static_cast<std::size_t>(idx % f1)];
        const auto costs = lp::build_multi_cost_model(
            bsbs, lib, target, a0, a1, p.ctrl_mode);
        lp::Multi_pace_options mo;
        mo.ctrl_area_budgets = {half - a0.area(lib), half - a1.area(lib)};
        mo.area_quantum = p.area_quantum;
        const auto r = lp::multi_pace_partition(costs, mo);
        const double area_sum = a0.area(lib) + a1.area(lib);
        if (!have || r.time_hybrid_ns < best_time ||
            (r.time_hybrid_ns == best_time && area_sum < best_area)) {
            best_time = r.time_hybrid_ns;
            best_area = area_sum;
            best_pair = {a0, a1};
            have = true;
        }
    }
    EXPECT_EQ(prefix.multi.datapaths, best_pair);
    EXPECT_EQ(prefix.multi.partition.time_hybrid_ns, best_time);

    // Determinism of the truncated walk across thread counts.
    for (int n_threads : {2, 5}) {
        lso::Solve_options o;
        o.n_threads = n_threads;
        o.extras = lso::Multi_asic_extras{.pair_limit = limit};
        const auto r = session.solve("multi_asic_bb", o);
        EXPECT_EQ(r.multi.datapaths, prefix.multi.datapaths) << n_threads;
        EXPECT_EQ(r.multi.partition.time_hybrid_ns,
                  prefix.multi.partition.time_hybrid_ns);
        EXPECT_EQ(r.multi.pairs_skipped, prefix.multi.pairs_skipped);
        EXPECT_EQ(r.status, lycos::util::Solve_status::budget);
    }
}

// The per-a0-row bound must actually kill rows in its home regime — a
// large primary ASIC plus a starved secondary, where a best-case-
// asic1-only completion is weak and rows with unhelpful a0
// allocations are provably dead — while returning exactly the pair
// the flat walk finds, for any thread count.
TEST(MultiAsicBb, row_bound_kills_rows_and_preserves_the_best_pair)
{
    const auto lib = lh::make_default_library();
    auto app = lycos::apps::make_man();
    const auto target = lh::make_default_target(app.asic_area);
    const auto infos = lc::analyze(app.bsbs, lib, target.gates);
    const auto raw = lc::compute_restrictions(infos, lib);
    lc::Rmap bounds;
    for (const auto& [id, b] : raw.entries())
        bounds.set(id, std::min(b, 1));  // keep the pair space small

    lso::Problem p;
    p.bsbs = app.bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions = bounds;
    p.area_quantum = app.asic_area / 256.0;
    p.asic_areas = {app.asic_area, 300.0};

    lso::Session session(p);
    lso::Solve_options flat;
    flat.n_threads = 1;
    flat.extras = lso::Multi_asic_extras{.use_row_bound = false};
    const auto reference = session.solve("multi_asic_bb", flat);
    ASSERT_GT(reference.multi.partition.n_in_hw, 0);

    for (int n_threads : {1, 3}) {
        const auto r =
            session.solve("multi_asic_bb", {.n_threads = n_threads});
        EXPECT_GT(r.multi.rows_pruned, 0) << n_threads;
        EXPECT_EQ(r.multi.datapaths, reference.multi.datapaths);
        EXPECT_EQ(r.multi.partition.time_hybrid_ns,
                  reference.multi.partition.time_hybrid_ns);
        EXPECT_EQ(r.multi.partition.placement,
                  reference.multi.partition.placement);
        EXPECT_EQ(r.n_evaluated + r.n_pruned, r.space_size);
        EXPECT_GT(r.multi.dp_states_swept, 0);
        EXPECT_LT(r.multi.dp_states_swept, r.multi.dp_cells_dense);
    }
}

TEST(MultiAsicBb, respects_budgets)
{
    const auto lib = small_library();
    const auto target = lh::make_default_target(2000.0);
    const auto bsbs = small_app();

    lso::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions.set(0, 2);
    p.restrictions.set(1, 2);
    p.area_quantum = 1.0;

    // Asymmetric budgets: ASIC1 gets no silicon, so its axis holds
    // only the empty allocation and the best pair leaves it empty.
    lso::Problem lop = p;
    lop.asic_areas = {target.asic.total_area, 0.0};
    lso::Session lopsided(lop);
    const auto r = lopsided.solve("multi_asic_bb", {});
    ASSERT_TRUE(r.multi.active);
    EXPECT_EQ(r.multi.axis_points[1], 1);
    EXPECT_TRUE(r.multi.datapaths[1].empty());
    EXPECT_LE(r.multi.datapath_area[0], target.asic.total_area);
    EXPECT_LE(r.multi.partition.ctrl_area_used[0] +
                  r.multi.datapath_area[0],
              target.asic.total_area + 1e-9);
}
