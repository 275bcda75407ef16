// design_sweep: the paper's design-iteration loop, one closed-loop
// client.  Every design point runs the whole flow on a fresh Session —
// compile, extract, analyze/restrict, Algorithm 1, solve(auto) and
// rescore, under both controller modes — so the frontend, Eval_cache
// misses (list scheduling) and the single-ASIC PACE DP carry the time.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <optional>
#include <thread>

#include "bsb/bsb.hpp"
#include "core/allocator.hpp"
#include "core/analysis.hpp"
#include "core/restrictions.hpp"
#include "inputs.hpp"
#include "minic/lower.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lc = lycos;

namespace {

/// Latency limit of one design point (both solves) for goodput_rps.
constexpr double k_point_limit_ms = 400.0;

constexpr std::array<lc::pace::Controller_mode, 2> k_modes{
    lc::pace::Controller_mode::optimistic_eca,
    lc::pace::Controller_mode::list_schedule};

struct Answer {
    std::size_t point = 0;
    std::size_t mode = 0;
    std::string strategy;
    Tuple best;
    Tuple rescored;
    lc::core::Rmap datapath;
    bool alloc_ok = false;
};

/// What the measured loop accumulates, one entry per solve.
struct Phase_state {
    std::vector<Answer> answers;
    std::vector<double> solve_ms;
    std::vector<long long> space;
    Solve_counters counters;
};

class Design_sweep final : public Workload {
public:
    explicit Design_sweep(std::uint64_t seed) : seed_(seed) {}

    void setup() override
    {
        lib_ = lc::hw::make_default_library();
        points_ = design_points(seed_);
        compiled_.clear();
        optimum_.clear();
    }

    Phase_result run(double seconds, Tracer* tracer) override;
    void probes(Phase_result& out, Tracer* tracer) override;

private:
    /// The whole flow for one design point, both controller modes.
    void run_point(std::size_t index, std::uint64_t request, Tracer* tracer,
                   Phase_state& st);
    /// The point's problem under `mode`, compiled outside any timing
    /// (oracle and probes).
    lc::solver::Problem problem_of(std::size_t point, std::size_t mode);
    /// Whether each answer matches its reference.
    std::vector<bool> check(const std::vector<Answer>& answers);

    std::uint64_t seed_;
    lc::hw::Hw_library lib_;
    std::vector<Design_point> points_;
    std::map<std::size_t, Owned_problem> compiled_;
    std::vector<Answer> last_answers_;
    /// Flat-walk optimum per (point, mode), kept across phases.
    std::map<std::pair<std::size_t, std::size_t>, Tuple> optimum_;
};

lc::solver::Problem Design_sweep::problem_of(std::size_t point,
                                             std::size_t mode)
{
    auto it = compiled_.find(point);
    if (it == compiled_.end()) {
        const auto& dp = points_[point];
        Owned_problem p;
        p.name = dp.family;
        p.bsbs = lc::bsb::extract_leaf_bsbs(lc::minic::compile(dp.source));
        p.area = dp.area;
        p.target = lc::hw::make_default_target(dp.area);
        p.restrictions = lc::core::compute_restrictions(
            lc::core::analyze(p.bsbs, lib_, p.target.gates), lib_);
        p.storage = dp.storage;
        it = compiled_.emplace(point, std::move(p)).first;
    }
    auto problem = it->second.problem(lib_);
    problem.ctrl_mode = k_modes[mode];
    return problem;
}

void Design_sweep::run_point(std::size_t index, std::uint64_t request,
                             Tracer* tracer, Phase_state& st)
{
    const auto& point = points_[index];
    Scope op(tracer, "bench.point", -1, request);

    lc::cdfg::Cdfg graph;
    {
        Scope s(tracer, "minic.compile", op.id(), request);
        graph = lc::minic::compile(point.source);
    }
    std::vector<lc::bsb::Bsb> bsbs;
    {
        Scope s(tracer, "bsb.extract", op.id(), request);
        bsbs = lc::bsb::extract_leaf_bsbs(graph);
    }
    const auto target = lc::hw::make_default_target(point.area);
    std::vector<lc::core::Bsb_info> infos;
    lc::core::Rmap restrictions;
    {
        Scope s(tracer, "core.analyze", op.id(), request);
        infos = lc::core::analyze(bsbs, lib_, target.gates);
        restrictions = lc::core::compute_restrictions(infos, lib_);
    }
    lc::core::Alloc_result alloc;
    {
        Scope s(tracer, "core.allocate", op.id(), request);
        alloc = lc::core::Allocator(lib_, target)
                    .run_analyzed(infos, {.area_budget = point.area});
    }
    lc::solver::Solve_options opts;
    opts.n_threads = solve_threads();
    for (std::size_t mode = 0; mode < k_modes.size(); ++mode) {
        lc::solver::Problem problem;
        problem.bsbs = bsbs;
        problem.lib = &lib_;
        problem.target = target;
        problem.restrictions = restrictions;
        problem.ctrl_mode = k_modes[mode];
        problem.area_quantum = point.area / 512.0;
        problem.storage = point.storage ? &default_storage() : nullptr;

        std::optional<lc::solver::Session> session;
        {
            Scope s(tracer, "solver.session", op.id(), request);
            session.emplace(problem);
            session->invariants();
        }
        lc::solver::Solve_result result;
        const auto solve_start = Clock::now();
        {
            Scope s(tracer, "solver.solve", op.id(), request);
            result = session->solve(opts);
        }
        st.solve_ms.push_back(ms_between(solve_start, Clock::now()));
        lc::search::Evaluation rescored;
        {
            Scope s(tracer, "solver.rescore", op.id(), request);
            rescored = session->rescore(result.best.datapath);
        }
        st.counters.add(result);
        st.space.push_back(result.space_size);
        st.answers.push_back(
            {index, mode, result.strategy, single_tuple(result.best, lib_),
             single_tuple(rescored, lib_), result.best.datapath,
             alloc.datapath_area <= point.area &&
                 result.status == lc::util::Solve_status::complete});
    }
}

Phase_result Design_sweep::run(double seconds, Tracer* tracer)
{
    Phase_result out;
    Phase_state st;
    auto& answers = st.answers;
    auto& solve_ms = st.solve_ms;
    auto& space = st.space;

    const auto t0 = Clock::now();
    for (std::size_t i = 0; ms_between(t0, Clock::now()) < 1000.0 * seconds;
         ++i) {
        const std::size_t index = i % points_.size();
        const auto op_start = Clock::now();
        const std::size_t first = answers.size();
        try {
            run_point(index, i + 1, tracer, st);
        }
        catch (const std::exception& e) {
            // An exception fails both of the point's answers.
            std::cerr << "design_sweep: " << points_[index].family << ": "
                      << e.what() << "\n";
            answers.resize(first);
            solve_ms.resize(first);
            space.resize(first);
            for (std::size_t mode = 0; mode < k_modes.size(); ++mode) {
                answers.push_back({index, mode, "error", {}, {}, {}, false});
                solve_ms.push_back(ms_between(op_start, Clock::now()));
                space.push_back(0);
            }
        }
        out.op_ms.push_back(ms_between(op_start, Clock::now()));
    }
    const auto ok = check(answers);
    out.attempted = static_cast<long long>(answers.size());
    out.failed = std::count(ok.begin(), ok.end(), false);

    // Per point: both solves right, and the space both solves covered.
    auto& op_item = out.op_item;
    std::vector<bool> op_ok;
    std::vector<double> work(points_.size(), 0.0);
    for (std::size_t i = 0; i < out.op_ms.size(); ++i) {
        const auto& a = answers[2 * i];
        op_item.push_back(a.point);
        op_ok.push_back(ok[2 * i] && ok[2 * i + 1]);
        work[a.point] = static_cast<double>(space[2 * i] + space[2 * i + 1]);
    }
    const auto rates =
        pool_rates(op_item, out.op_ms, op_ok, work, k_point_limit_ms);

    std::vector<std::size_t> solve_item;
    for (const auto& a : answers)
        solve_item.push_back(a.point);
    const double solve_q = tail(solve_ms).q, req_q = tail(out.op_ms).q;
    const double points = static_cast<double>(out.op_ms.size());
    out.e2e.set("solves_per_s", 2.0 * rates.items_per_s, "1/s");
    out.e2e.set("solve_ms_p50", pool_percentile(solve_item, solve_ms, 50.0),
                "ms");
    out.e2e.set("solve_ms_p99", pool_percentile(solve_item, solve_ms, solve_q),
                "ms");
    out.e2e.set("points_per_s", rates.work_per_s, "1/s");
    out.e2e.set("req_ms_p50", pool_percentile(op_item, out.op_ms, 50.0), "ms");
    out.e2e.set("req_ms_p99", pool_percentile(op_item, out.op_ms, req_q), "ms");
    out.e2e.set("goodput_rps", rates.on_time_per_s, "1/s");
    // Closed loop: the offered rate is the completion rate.
    out.e2e.set("sustained_rps", rates.items_per_s, "1/s");
    out.note = "solves=" + std::to_string(answers.size()) +
               " solve_tail_q=" + std::to_string(solve_q) +
               " points=" + std::to_string(out.op_ms.size()) +
               " req_tail_q=" + std::to_string(req_q);

    if (tracer) {
        const auto spans = tracer->spans();
        auto& l = out.layers;
        for (const char* name :
             {"minic.compile", "bsb.extract", "core.analyze", "core.allocate",
              "solver.session", "solver.solve", "solver.rescore"})
            l.set(std::string(name) + "_ms", mean_span_ms(spans, name), "ms");
        double n_bsbs = 0.0;
        for (const auto& a : answers)
            if (a.mode == 0)
                n_bsbs += static_cast<double>(
                    problem_of(a.point, 0).bsbs.size());
        l.set("bsb.count", points > 0 ? n_bsbs / points : 0.0, "count");
        st.counters.report(l);
    }
    last_answers_ = std::move(answers);
    return out;
}

std::vector<bool> Design_sweep::check(const std::vector<Answer>& answers)
{
    // Flat walks only where the answer claims the optimum
    // (exhaustive_bb); one per distinct (point, mode), in parallel.
    std::vector<std::pair<std::size_t, std::size_t>> keys;
    for (const auto& a : answers) {
        if (a.strategy == "error")
            continue;
        problem_of(a.point, a.mode);  // compile serially: the map is not shared
        const auto key = std::make_pair(a.point, a.mode);
        if (a.strategy == "exhaustive_bb" && !optimum_.contains(key) &&
            std::find(keys.begin(), keys.end(), key) == keys.end())
            keys.push_back(key);
    }
    std::vector<Tuple> walked(keys.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < solve_threads(); ++t)
        threads.emplace_back([&] {
            for (std::size_t k; (k = next++) < keys.size();) {
                auto problem = compiled_.at(keys[k].first).problem(lib_);
                problem.ctrl_mode = k_modes[keys[k].second];
                walked[k] = flat_walk(problem);
            }
        });
    for (auto& t : threads)
        t.join();
    for (std::size_t k = 0; k < keys.size(); ++k)
        optimum_[keys[k]] = walked[k];

    std::vector<bool> ok;
    for (const auto& a : answers) {
        if (a.strategy == "error") {
            ok.push_back(false);
            continue;
        }
        const auto problem = problem_of(a.point, a.mode);
        bool good = a.alloc_ok;
        if (a.strategy == "exhaustive_bb")
            good = good && a.best == optimum_.at({a.point, a.mode});
        else
            // hill_climb promises no optimum, only an honest score: its
            // tuple is the uncached evaluation of its own data-path.
            good = good && a.best == search_score(problem, a.datapath);
        // The rescore is the exact, uncached evaluation of the answer.
        good = good && a.rescored == exact_score(problem, a.datapath);
        ok.push_back(good);
    }
    return ok;
}

void Design_sweep::probes(Phase_result& out, Tracer* tracer)
{
    std::vector<Probe_sample> samples;
    std::vector<std::size_t> seen;
    for (const auto& a : last_answers_) {
        if (std::find(seen.begin(), seen.end(), a.point * 2 + a.mode) !=
            seen.end())
            continue;
        seen.push_back(a.point * 2 + a.mode);
        samples.push_back({problem_of(a.point, a.mode), {a.datapath}});
    }
    probe_kernels(samples, out.layers, tracer);
    // Fixed sample: the first eigen point under the real controller.
    for (std::size_t i = 0; i < points_.size(); ++i)
        if (points_[i].family.rfind("eigen/", 0) == 0) {
            Scope s(tracer, "probe.solver.thread_scaling");
            out.layers.set("solver.thread_scaling",
                           thread_scaling(problem_of(i, 1), "auto",
                                          solve_threads()),
                           "x");
            break;
        }
}

}  // namespace

std::unique_ptr<Workload> make_design_sweep(std::uint64_t seed)
{
    return std::make_unique<Design_sweep>(seed);
}

}  // namespace perfbench
