#include <algorithm>
#include <map>

#include "pace/multi_asic.hpp"
#include "pace/pace.hpp"
#include "sched/list_scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lc = lycos;

const std::vector<Metric_spec> k_end_to_end{
    {"setup_s", "s"},         {"solves_per_s", "1/s"},
    {"solve_ms_p50", "ms"},   {"solve_ms_p99", "ms"},
    {"points_per_s", "1/s"},  {"req_ms_p50", "ms"},
    {"req_ms_p99", "ms"},     {"goodput_rps", "1/s"},
    {"sustained_rps", "1/s"}, {"peak_rss_mb", "MB"},
};

const std::vector<Metric_spec> k_per_layer{
    {"minic.compile_ms", "ms"},
    {"bsb.extract_ms", "ms"},
    {"bsb.count", "count"},
    {"core.analyze_ms", "ms"},
    {"core.allocate_ms", "ms"},
    {"solver.session_ms", "ms"},
    {"solver.solve_ms", "ms"},
    {"solver.rescore_ms", "ms"},
    {"solver.thread_scaling", "x"},
    {"search.evaluated", "count"},
    {"search.pruned", "count"},
    {"search.scored_frac", "frac"},
    {"eval_cache.hit_frac", "frac"},
    {"eval_cache.misses", "count"},
    {"eval_cache.evictions", "count"},
    {"sched.list_schedule_us", "us"},
    {"pace.rows_swept", "count"},
    {"pace.rows_reused_frac", "frac"},
    {"pace.rows_cross_request", "count"},
    {"pace.partition_us", "us"},
    {"pace_multi.states_swept", "count"},
    {"pace_multi.occupancy", "frac"},
    {"pace_multi.partition_us", "us"},
    {"solver.rows_pruned_frac", "frac"},
    {"solver.pairs_scored_frac", "frac"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.solve_ms_p50", "ms"},
    {"serve.batched_frac", "frac"},
    {"serve.batch_max", "count"},
    {"serve.session_reuse_frac", "frac"},
    {"serve.family_hit_frac", "frac"},
    {"serve.degraded_frac", "frac"},
    {"serve.retries", "count"},
    {"serve.shed_frac", "frac"},
    {"loadgen.lag_ms_p99", "ms"},
    {"dist.solve_ms", "ms"},
    {"dist.leases", "count"},
    {"dist.reassigned", "count"},
    {"dist.broadcasts", "count"},
    {"dist.pruned_remote", "count"},
    {"dist.local_fallback", "count"},
    {"dist.job_encode_us", "us"},
    {"dist.job_bytes", "bytes"},
    {"trace.overhead_frac", "frac"},
    {"self.bench_ms", "ms"},
    {"self.minic_ms", "ms"},
    {"self.bsb_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.solver_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.loadgen_ms", "ms"},
    {"self.dist_ms", "ms"},
};

std::vector<std::string> workload_names()
{
    return {"design_sweep", "two_asic", "serve_mix", "dist_two_asic"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed)
{
    if (name == "design_sweep")
        return make_design_sweep(seed);
    if (name == "two_asic")
        return make_two_asic(seed, false);
    if (name == "dist_two_asic")
        return make_two_asic(seed, true);
    if (name == "serve_mix")
        return make_serve_mix(seed);
    return nullptr;
}

int solve_threads()
{
    return std::min(hardware_threads(), 4);
}

namespace {

double frac(long long part, long long whole)
{
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
}

}  // namespace

void Solve_counters::add(const lc::solver::Solve_result& r)
{
    ++solves;
    evaluated += r.n_evaluated;
    pruned += r.n_pruned;
    space += r.space_size;
    hits += r.cache_stats.hits;
    misses += r.cache_stats.misses;
    evictions += r.cache_stats.evictions;
    rows_swept += r.dp_rows_swept;
    rows_reused += r.dp_rows_reused;
    rows_cross += r.dp_rows_reused_cross_request;
    if (r.multi.active) {
        states_swept += r.multi.dp_states_swept;
        cells_dense += r.multi.dp_cells_dense;
        rows_visited += r.multi.rows_visited;
        rows_pruned += r.multi.rows_pruned;
        pairs += r.space_size;
        pairs_evaluated += r.n_evaluated;
    }
}

void Solve_counters::report(Metrics& layers) const
{
    layers.set("search.evaluated", frac(evaluated, solves), "count");
    layers.set("search.pruned", frac(pruned, solves), "count");
    layers.set("search.scored_frac", frac(evaluated, space), "frac");
    layers.set("eval_cache.hit_frac", frac(hits, hits + misses), "frac");
    layers.set("eval_cache.misses", frac(misses, solves), "count");
    layers.set("eval_cache.evictions", frac(evictions, solves), "count");
    layers.set("pace.rows_swept", frac(rows_swept, solves), "count");
    layers.set("pace.rows_reused_frac", frac(rows_reused, rows_reused + rows_swept),
               "frac");
    layers.set("pace.rows_cross_request", frac(rows_cross, solves), "count");
    layers.set("pace_multi.states_swept", frac(states_swept, solves), "count");
    layers.set("pace_multi.occupancy", frac(states_swept, cells_dense), "frac");
    layers.set("solver.rows_pruned_frac", frac(rows_pruned, rows_visited),
               "frac");
    layers.set("solver.pairs_scored_frac", frac(pairs_evaluated, pairs), "frac");
}

Pool_rates pool_rates(const std::vector<std::size_t>& item,
                      const std::vector<double>& op_ms,
                      const std::vector<bool>& ok,
                      const std::vector<double>& work, double limit_ms)
{
    std::map<std::size_t, std::vector<double>> samples;
    std::map<std::size_t, bool> all_ok;
    for (std::size_t i = 0; i < item.size(); ++i) {
        samples[item[i]].push_back(op_ms[i]);
        auto [it, fresh] = all_ok.emplace(item[i], ok[i]);
        if (!fresh)
            it->second = it->second && ok[i];
    }
    double pass_ms = 0.0, pass_work = 0.0, on_time = 0.0;
    for (const auto& [index, v] : samples) {
        const double median = percentile(v, 50.0);
        pass_ms += median;
        pass_work += work[index];
        on_time += all_ok[index] && median <= limit_ms ? 1.0 : 0.0;
    }
    Pool_rates r;
    if (pass_ms > 0.0) {
        r.items_per_s = 1000.0 * static_cast<double>(samples.size()) / pass_ms;
        r.work_per_s = 1000.0 * pass_work / pass_ms;
        r.on_time_per_s = 1000.0 * on_time / pass_ms;
    }
    return r;
}

double pool_percentile(const std::vector<std::size_t>& item,
                       const std::vector<double>& ms, double q)
{
    if (ms.empty())
        return 0.0;
    std::map<std::size_t, double> count;
    for (const auto i : item)
        count[i] += 1.0;
    std::vector<std::pair<double, double>> v;  // (value, weight)
    for (std::size_t i = 0; i < ms.size(); ++i)
        v.emplace_back(ms[i], 1.0 / count[item[i]]);
    std::sort(v.begin(), v.end());
    // Each sample sits at the midpoint of its weight; interpolate there.
    double total = 0.0;
    for (const auto& [value, w] : v)
        total += w;
    const double target = q / 100.0 * total;
    double below = 0.0;
    double prev_pos = 0.0, prev_value = v.front().first;
    for (const auto& [value, w] : v) {
        const double pos = below + w / 2.0;
        if (pos >= target) {
            if (pos == prev_pos || target <= v.front().second / 2.0)
                return value;
            return prev_value +
                   (value - prev_value) * (target - prev_pos) / (pos - prev_pos);
        }
        prev_pos = pos;
        prev_value = value;
        below += w;
    }
    return v.back().first;
}

void probe_kernels(const std::vector<Probe_sample>& samples, Metrics& layers,
                   Tracer* tracer)
{
    std::vector<const Probe_sample*> single, pair;
    for (const auto& s : samples)
        (s.datapaths.size() == 2 ? pair : single).push_back(&s);

    if (!single.empty()) {
        Scope span_sched(tracer, "probe.sched.list_schedule");
        layers.set("sched.list_schedule_us", time_us([&] {
                       long long calls = 0;
                       for (const auto* s : single) {
                           const auto& lib = *s->problem.lib;
                           const auto counts = s->datapaths[0].dense_counts(lib);
                           for (const auto& b : s->problem.bsbs) {
                               const auto sched =
                                   lc::sched::list_schedule(b.graph, lib, counts);
                               calls += sched.length >= 0 ? 1 : 0;
                           }
                       }
                       return calls;
                   }),
                   "us");
        std::vector<std::vector<lc::pace::Bsb_cost>> costs;
        std::vector<lc::pace::Pace_options> options;
        for (const auto* s : single) {
            const auto& p = s->problem;
            costs.push_back(lc::pace::build_cost_model(
                p.bsbs, *p.lib, p.target, s->datapaths[0], p.ctrl_mode,
                p.storage, p.scheduler));
            lc::pace::Pace_options o;
            o.ctrl_area_budget = p.target.asic.total_area -
                                 s->datapaths[0].area(*p.lib);
            o.area_quantum = p.area_quantum;
            options.push_back(o);
        }
        Scope span_pace(tracer, "probe.pace.partition");
        layers.set("pace.partition_us", time_us([&] {
                       long long calls = 0;
                       for (std::size_t i = 0; i < costs.size(); ++i)
                           calls += lc::pace::pace_partition(costs[i], options[i])
                                            .n_in_hw >= 0;
                       return calls;
                   }),
                   "us");
    }
    if (!pair.empty()) {
        std::vector<std::vector<lc::pace::Multi_bsb_cost>> costs;
        std::vector<lc::pace::Multi_pace_options> options;
        for (const auto* s : pair) {
            const auto& p = s->problem;
            costs.push_back(lc::pace::build_multi_cost_model(
                p.bsbs, *p.lib, p.target, s->datapaths[0], s->datapaths[1],
                p.ctrl_mode));
            lc::pace::Multi_pace_options o;
            for (std::size_t k = 0; k < 2; ++k)
                o.ctrl_area_budgets[k] =
                    p.asic_areas[k] - s->datapaths[k].area(*p.lib);
            o.area_quantum = p.area_quantum;
            options.push_back(o);
        }
        Scope span_multi(tracer, "probe.pace_multi.partition");
        layers.set("pace_multi.partition_us", time_us([&] {
                       long long calls = 0;
                       for (std::size_t i = 0; i < costs.size(); ++i)
                           calls += lc::pace::multi_pace_partition(costs[i],
                                                                   options[i])
                                            .n_in_hw >= 0;
                       return calls;
                   }),
                   "us");
    }
}

double thread_scaling(const lc::solver::Problem& problem,
                      const std::string& strategy, int n_threads)
{
    auto best_of_two = [&](int threads) {
        double best = 0.0;
        for (int rep = 0; rep < 2; ++rep) {
            lc::solver::Session session(problem);
            lc::solver::Solve_options opts;
            opts.n_threads = threads;
            const auto t0 = Clock::now();
            if (strategy == "auto")
                session.solve(opts);
            else
                session.solve(strategy, opts);
            const double ms = ms_between(t0, Clock::now());
            best = rep == 0 ? ms : std::min(best, ms);
        }
        return best;
    };
    const double one = best_of_two(1);
    const double many = best_of_two(n_threads);
    return many > 0.0 ? one / many : 0.0;
}

}  // namespace perfbench
