// serve_mix: open-loop Poisson traffic from one generator thread into a
// serve::Server with nproc - 1 workers at one solve thread each.  Keys are
// Zipf-skewed over the family set, so hot keys run on warm pooled
// sessions (Eval_cache mostly hits, batching, cross-request DP warm
// starts) while the cold tail keeps some misses — the opposite of
// design_sweep on the same layers.
//
// The offered rates are absolute and fixed here, chosen once from this
// mix's capacity on a 4-core x86-64 host; they are never recalibrated
// per run, so a slower build shows as higher latency and a lower
// sustained rate instead of as a lighter load.
#include <algorithm>
#include <future>
#include <map>
#include <span>
#include <thread>

#include "inputs.hpp"
#include "oracle.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lc = lycos;

namespace {

constexpr double k_rate_mid = 100.0;   ///< req/s: latency is read here
constexpr double k_rate_high = 300.0;  ///< req/s: goodput is read here
/// The ladder sustained_rps is read from, ascending; it brackets the
/// mix's capacity (about 600 req/s when the rates were fixed).
constexpr std::array<double, 4> k_ladder{300.0, 450.0, 600.0, 750.0};
/// Fixed p99 request-latency limit (from when the request was due).  Well
/// above a cold solve, so a rung fails by queueing, near capacity.
constexpr double k_limit_ms = 250.0;
constexpr double k_interactive_deadline_ms = 250.0;

/// Shares of the run's seconds: r_mid, r_high, then the ladder rungs.
constexpr double k_mid_share = 0.45;
constexpr double k_high_share = 0.15;

struct Sent {
    std::size_t arrival = 0;
    lc::serve::Request request;
    int family = 0;  ///< -1 = the hal two-ASIC problem
    Req_kind kind = Req_kind::auto_pick;
    Clock::time_point submitted;
    double lag_ms = 0.0;
    std::future<lc::serve::Response> future;
};

struct Done {
    Sent sent;
    lc::serve::Response response;
    double latency_ms = 0.0;  ///< due to answer
    bool ok = false;
};

struct Phase_stats {
    std::vector<Done> done;
    double seconds = 0.0;  ///< phase start to its last answer

    std::vector<double> latencies() const
    {
        std::vector<double> v;
        for (const auto& d : done)
            v.push_back(d.latency_ms);
        return v;
    }
    long long answered_within(double limit) const
    {
        long long n = 0;
        for (const auto& d : done)
            n += d.ok && d.latency_ms <= limit;
        return n;
    }
    /// Meets the limit without a growing backlog: p99 inside the limit,
    /// nothing refused, and the last third of requests not waiting
    /// markedly longer than the first third.
    bool sustained() const
    {
        const auto lat = latencies();
        if (lat.empty() || tail(lat).value > k_limit_ms)
            return false;
        for (const auto& d : done)
            if (!d.ok)
                return false;
        const std::size_t third = lat.size() / 3;
        const std::vector<double> first(lat.begin(), lat.begin() + third);
        const std::vector<double> last(lat.end() - third, lat.end());
        return percentile(last, 50.0) <=
               std::max(2.0 * percentile(first, 50.0), k_limit_ms / 4.0);
    }
};

/// The highest rate that meets the limit: what the highest rung that
/// holds served within the limit, plus the part of the step to the next
/// rung where their p99 latencies cross the limit (linear in the rate),
/// so the figure moves continuously with capacity instead of jumping a
/// whole rung.
double sustained_rate(std::span<const Phase_stats> rungs)
{
    std::size_t held = 0;
    while (held < rungs.size() && rungs[held].sustained())
        ++held;
    const auto p99 = [&](std::size_t r) { return tail(rungs[r].latencies()).value; };
    const auto served = [&](std::size_t r) {
        return static_cast<double>(rungs[r].answered_within(k_limit_ms)) /
               rungs[r].seconds;
    };
    if (held == 0)  // not even the lowest rung holds: scale it down
        return k_ladder.front() * std::min(1.0, k_limit_ms / p99(0));
    if (held == rungs.size() || p99(held) <= k_limit_ms)
        return served(held - 1);  // the next rung failed on backlog alone
    const double lo = p99(held - 1), hi = p99(held);
    const double f = hi > lo ? (k_limit_ms - lo) / (hi - lo) : 0.0;
    return served(held - 1) + f * (k_ladder[held] - k_ladder[held - 1]);
}

class Serve_mix final : public Workload {
public:
    explicit Serve_mix(std::uint64_t seed) : seed_(seed) {}

    void setup() override
    {
        lib_ = lc::hw::make_default_library();
        families_ = serve_families(seed_, lib_);
        hal_multi_ = app_problem("hal", 7000.0, lib_);
        hal_multi_.asic_areas = {3500.0, 3500.0};
    }

    Phase_result run(double seconds, Tracer* tracer) override;
    void probes(Phase_result& out, Tracer* tracer) override;

private:
    Phase_stats run_phase(lc::serve::Server& server, double rate,
                          double seconds, std::uint64_t stream,
                          Tracer* tracer, std::uint64_t& request_id,
                          std::vector<double>& lags);
    lc::serve::Request make_request(const Arrival& a) const;
    /// Replay-check every answer (memoized per distinct replay).
    void check(std::vector<Phase_stats>& phases);

    std::uint64_t seed_;
    lc::hw::Hw_library lib_;
    std::vector<Owned_problem> families_;
    Owned_problem hal_multi_;
    std::vector<Probe_sample> samples_;
};

lc::serve::Request Serve_mix::make_request(const Arrival& a) const
{
    lc::serve::Request r;
    if (a.kind == Req_kind::multi_hal) {
        r.problem = hal_multi_.problem(lib_);
        r.strategy = "multi_asic_bb";
    }
    else {
        r.problem = families_[static_cast<std::size_t>(a.family)].problem(lib_);
        r.strategy = a.kind == Req_kind::hill_climb ? "hill_climb" : "auto";
    }
    r.options.n_threads = 1;
    if (a.interactive) {
        r.priority = lc::serve::Priority::interactive;
        r.deadline_ms = k_interactive_deadline_ms;
    }
    return r;
}

Phase_stats Serve_mix::run_phase(lc::serve::Server& server, double rate,
                                 double seconds, std::uint64_t stream,
                                 Tracer* tracer, std::uint64_t& request_id,
                                 std::vector<double>& lags)
{
    const auto schedule = arrivals(derive_seed(seed_, stream), rate, seconds,
                                   static_cast<int>(families_.size()));
    std::vector<Sent> sent(schedule.size());
    const auto start = Clock::now();
    const auto phase_lags = drive_open_loop(schedule, start, [&](std::size_t i) {
        auto& s = sent[i];
        s.arrival = i;
        s.request = make_request(schedule[i]);
        s.family = schedule[i].kind == Req_kind::multi_hal ? -1
                                                            : schedule[i].family;
        s.kind = schedule[i].kind;
        s.submitted = Clock::now();
        s.future = server.submit(s.request);
    });
    Phase_stats stats;
    stats.seconds = seconds;
    for (std::size_t i = 0; i < sent.size(); ++i) {
        auto& s = sent[i];
        s.lag_ms = phase_lags[i];
        lags.push_back(phase_lags[i]);
        Done d;
        d.response = s.future.get();
        const auto& resp = d.response;
        d.latency_ms = s.lag_ms + resp.queue_ms + resp.solve_ms;
        stats.seconds = std::max(
            stats.seconds,
            (ms_between(start, s.submitted) + resp.queue_ms + resp.solve_ms) /
                1000.0);
        if (tracer) {
            using ms = std::chrono::duration<double, std::milli>;
            const auto due = s.submitted -
                             std::chrono::duration_cast<Clock::duration>(
                                 ms(s.lag_ms));
            const auto dequeued =
                s.submitted +
                std::chrono::duration_cast<Clock::duration>(ms(resp.queue_ms));
            const auto answered =
                dequeued +
                std::chrono::duration_cast<Clock::duration>(ms(resp.solve_ms));
            const std::uint64_t id = ++request_id;
            const int root = tracer->add("serve.request", due, answered, -1, id);
            tracer->add("loadgen.lag", due, s.submitted, root, id);
            tracer->add("serve.queue", s.submitted, dequeued, root, id);
            tracer->add("serve.solve", dequeued, answered, root, id);
        }
        d.sent = std::move(s);
        stats.done.push_back(std::move(d));
    }
    return stats;
}

void Serve_mix::check(std::vector<Phase_stats>& phases)
{
    std::map<std::string, Tuple> replays;
    for (auto& phase : phases)
        for (auto& d : phase.done) {
            const auto& resp = d.response;
            if (resp.status != lc::serve::Request_status::complete &&
                resp.status != lc::serve::Request_status::degraded)
                continue;  // shed and failed stay !ok
            std::string key = std::to_string(d.sent.family) + "/" +
                              std::to_string(static_cast<int>(d.sent.kind)) +
                              "/" + resp.rung_strategy;
            if (resp.warm_start)
                key += "/warm " + resp.warm_datapath.to_string(lib_);
            auto it = replays.find(key);
            if (it == replays.end()) {
                Tuple replayed;
                try {
                    replayed = result_tuple(
                        lc::serve::replay_rung(d.sent.request, resp), lib_);
                }
                catch (const std::exception& e) {
                    replayed.datapath = std::string("replay failed: ") + e.what();
                }
                it = replays.emplace(key, replayed).first;
            }
            d.ok = result_tuple(resp.result, lib_) == it->second;
        }
}

Phase_result Serve_mix::run(double seconds, Tracer* tracer)
{
    lc::serve::Server_options sopts;
    // The generator thread keeps a core of its own: workers plus the
    // generator never exceed nproc, so arrivals leave on time.
    sopts.n_workers = std::max(1, hardware_threads() - 1);
    // Overloaded rungs queue rather than shed: the overload shows as
    // latency and no answer is lost.
    sopts.queue_capacity = 1 << 16;
    lc::serve::Server server(sopts);

    std::uint64_t request_id = 0;
    std::vector<double> lags;
    std::vector<Phase_stats> phases;
    phases.push_back(run_phase(server, k_rate_mid, k_mid_share * seconds, 10,
                               tracer, request_id, lags));
    phases.push_back(run_phase(server, k_rate_high, k_high_share * seconds, 11,
                               tracer, request_id, lags));
    const double rung_seconds =
        (1.0 - k_mid_share - k_high_share) * seconds /
        static_cast<double>(k_ladder.size());
    for (std::size_t r = 0; r < k_ladder.size(); ++r)
        phases.push_back(run_phase(server, k_ladder[r], rung_seconds, 12 + r,
                                   tracer, request_id, lags));
    const auto stats = server.stats();
    check(phases);

    Phase_result out;
    Solve_counters counters;
    std::vector<double> solve_ms, queue_ms;
    long long space = 0, degraded = 0;
    for (const auto& phase : phases)
        for (const auto& d : phase.done) {
            ++out.attempted;
            out.failed += d.ok ? 0 : 1;
            if (!d.ok)
                continue;
            degraded += d.response.status == lc::serve::Request_status::degraded;
            counters.add(d.response.result);
            space += d.response.result.space_size;
            solve_ms.push_back(d.response.solve_ms);
            queue_ms.push_back(d.response.queue_ms);
        }
    out.op_ms = phases[0].latencies();
    for (const auto& d : phases[0].done)
        out.op_item.push_back(d.sent.arrival);

    const auto mid = phases[0].latencies();
    const std::span<const Phase_stats> rungs(phases.begin() + 2, phases.end());
    std::size_t rung_passed = 0;
    while (rung_passed < rungs.size() && rungs[rung_passed].sustained())
        ++rung_passed;

    // Open loop: the completion rate is the offered rate.  The service
    // rate is read from worker busy time instead — answers per second
    // the worker pool delivers while busy.
    double busy_s = 0.0;
    for (const double ms : solve_ms)
        busy_s += ms / 1000.0;
    busy_s /= static_cast<double>(sopts.n_workers);
    out.e2e.set("solves_per_s",
                busy_s > 0 ? static_cast<double>(solve_ms.size()) / busy_s : 0.0,
                "1/s");
    out.e2e.set("solve_ms_p50", percentile(solve_ms, 50.0), "ms");
    out.e2e.set("solve_ms_p99", tail(solve_ms).value, "ms");
    out.e2e.set("points_per_s",
                busy_s > 0 ? static_cast<double>(space) / busy_s : 0.0, "1/s");
    out.e2e.set("req_ms_p50", percentile(mid, 50.0), "ms");
    out.e2e.set("req_ms_p99", tail(mid).value, "ms");
    out.e2e.set("goodput_rps",
                static_cast<double>(phases[1].answered_within(k_limit_ms)) /
                    phases[1].seconds,
                "1/s");
    out.e2e.set("sustained_rps", sustained_rate(rungs), "1/s");
    out.note = "mid_requests=" + std::to_string(mid.size()) +
               " mid_tail_q=" + std::to_string(tail(mid).q) +
               " rungs_passed=" + std::to_string(rung_passed) +
               " lag_p99_ms=" + std::to_string(tail(lags).value);
    if (generator_fell_behind(lags))
        out.invalid = "open-loop generator fell behind: lag p99 " +
                      std::to_string(tail(lags).value) + " ms";

    if (tracer) {
        auto& l = out.layers;
        const double submitted = static_cast<double>(stats.submitted);
        l.set("serve.queue_ms_p50", percentile(queue_ms, 50.0), "ms");
        l.set("serve.queue_ms_p99", tail(queue_ms).value, "ms");
        l.set("serve.solve_ms_p50", percentile(solve_ms, 50.0), "ms");
        l.set("serve.batched_frac",
              static_cast<double>(stats.batched_requests) / submitted, "frac");
        l.set("serve.batch_max", static_cast<double>(stats.max_batch_size),
              "count");
        l.set("serve.session_reuse_frac",
              static_cast<double>(stats.sessions_reused) / submitted, "frac");
        long long hits = 0, lookups = 0;
        for (const auto& f : stats.family_cache) {
            hits += f.cache.hits;
            lookups += f.cache.hits + f.cache.misses;
        }
        l.set("serve.family_hit_frac",
              lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                          : 0.0,
              "frac");
        l.set("serve.degraded_frac",
              static_cast<double>(degraded) / submitted, "frac");
        l.set("serve.retries", static_cast<double>(stats.retries), "count");
        l.set("serve.shed_frac", static_cast<double>(stats.shed) / submitted,
              "frac");
        l.set("loadgen.lag_ms_p99", tail(lags).value, "ms");
        counters.report(l);

        samples_.clear();
        std::vector<std::string> seen;
        for (const auto& d : phases[0].done) {
            if (!d.ok)
                continue;
            const auto& r = d.response.result;
            const std::string key = std::to_string(d.sent.family) +
                                    result_tuple(r, lib_).str();
            if (std::find(seen.begin(), seen.end(), key) != seen.end())
                continue;
            seen.push_back(key);
            if (r.multi.active)
                samples_.push_back({d.sent.request.problem,
                                    {r.multi.datapaths[0], r.multi.datapaths[1]}});
            else
                samples_.push_back({d.sent.request.problem, {r.best.datapath}});
        }
    }
    return out;
}

void Serve_mix::probes(Phase_result& out, Tracer* tracer)
{
    probe_kernels(samples_, out.layers, tracer);
    // Fixed sample: the first eigen family.
    for (const auto& f : families_)
        if (f.name.rfind("eigen@", 0) == 0) {
            Scope s(tracer, "probe.solver.thread_scaling");
            out.layers.set("solver.thread_scaling",
                           thread_scaling(f.problem(lib_), "auto",
                                          solve_threads()),
                           "x");
            break;
        }
}

}  // namespace

std::vector<double> drive_open_loop(
    const std::vector<Arrival>& schedule, Clock::time_point start,
    const std::function<void(std::size_t)>& submit)
{
    std::vector<double> lags(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            schedule[i].due_ms));
        std::this_thread::sleep_until(due);
        lags[i] = std::max(0.0, ms_between(due, Clock::now()));
        submit(i);
    }
    return lags;
}

bool generator_fell_behind(const std::vector<double>& lags)
{
    return tail(lags).value > k_max_lag_ms;
}

std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed)
{
    return std::make_unique<Serve_mix>(seed);
}

}  // namespace perfbench
