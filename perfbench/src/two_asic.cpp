// two_asic and dist_two_asic: one closed-loop client solving a fixed
// set of two-ASIC problems with multi_asic_bb — locally on a fresh
// Session per solve, or through dist::solve_distributed with two
// in-process loopback workers at two threads each.  The set holds even
// splits (where the a0-row bound kills nothing) and a 65/35 split
// (where it fires), so a bound or symmetry change shows on one kind
// and not the other; the gap between the two workloads is the cost of
// the dist layer.
#include <iostream>
#include <optional>
#include <thread>

#include "dist/dist.hpp"
#include "dist/wire.hpp"
#include "inputs.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lc = lycos;

namespace {

/// Request-latency limit of goodput_rps, fixed.
constexpr double k_solve_limit_ms = 4000.0;
constexpr int k_dist_workers = 2;
constexpr int k_dist_threads = 2;

struct Answer {
    std::size_t problem = 0;
    Tuple tuple;
    std::array<lc::core::Rmap, 2> datapaths;
    bool honest = false;  ///< complete and no pair skipped
    long long pairs = 0;  ///< pair space of the problem
};

class Two_asic final : public Workload {
public:
    Two_asic(std::uint64_t seed, bool distributed)
        : seed_(seed), distributed_(distributed)
    {
    }

    void setup() override
    {
        lib_ = lc::hw::make_default_library();
        problems_.clear();
        for (const auto& c : two_asic_cases(seed_))
            problems_.push_back(two_asic_problem(c, lib_));
        references_ = Reference_table::load(PERFBENCH_REFERENCES);
    }

    Phase_result run(double seconds, Tracer* tracer) override;
    void probes(Phase_result& out, Tracer* tracer) override;

private:
    lc::solver::Solve_result solve_local(const lc::solver::Problem& problem,
                                         Tracer* tracer, int parent,
                                         std::uint64_t request);
    lc::solver::Solve_result solve_remote(const lc::solver::Problem& problem,
                                          Tracer* tracer, int parent,
                                          std::uint64_t request);

    std::uint64_t seed_;
    bool distributed_;
    lc::hw::Hw_library lib_;
    std::vector<Owned_problem> problems_;
    Reference_table references_;
    std::vector<Answer> last_answers_;
};

lc::solver::Solve_result Two_asic::solve_local(
    const lc::solver::Problem& problem, Tracer* tracer, int parent,
    std::uint64_t request)
{
    std::optional<lc::solver::Session> session;
    {
        Scope s(tracer, "solver.session", parent, request);
        session.emplace(problem);
        session->invariants();
    }
    lc::solver::Solve_options opts;
    opts.n_threads = solve_threads();
    Scope s(tracer, "solver.solve", parent, request);
    return session->solve("multi_asic_bb", opts);
}

lc::solver::Solve_result Two_asic::solve_remote(
    const lc::solver::Problem& problem, Tracer* tracer, int parent,
    std::uint64_t request)
{
    lc::dist::Coordinator_options copts;
    copts.strategy = "multi_asic_bb";
    copts.solve.n_threads = k_dist_threads;
    copts.n_workers = k_dist_workers;
    std::vector<std::thread> workers;
    copts.on_listen = [&workers](std::uint16_t port) {
        for (int w = 0; w < k_dist_workers; ++w)
            workers.emplace_back([port] { lc::dist::run_worker("127.0.0.1", port); });
    };
    lc::solver::Solve_result result;
    try {
        Scope s(tracer, "dist.solve_distributed", parent, request);
        result = lc::dist::solve_distributed(problem, copts);
    }
    catch (...) {
        for (auto& t : workers)
            t.join();
        throw;
    }
    for (auto& t : workers)
        t.join();
    return result;
}

Phase_result Two_asic::run(double seconds, Tracer* tracer)
{
    Phase_result out;
    std::vector<Answer> answers;
    Solve_counters counters;
    long long leases = 0, reassigned = 0, broadcasts = 0,
              pruned_remote = 0, local = 0;

    const auto t0 = Clock::now();
    for (std::size_t i = 0; ms_between(t0, Clock::now()) < 1000.0 * seconds;
         ++i) {
        const std::size_t index = i % problems_.size();
        const auto problem = problems_[index].problem(lib_);
        const std::uint64_t request = i + 1;
        const auto op_start = Clock::now();
        lc::solver::Solve_result r;
        try {
            Scope op(tracer, "bench.solve", -1, request);
            r = distributed_ ? solve_remote(problem, tracer, op.id(), request)
                             : solve_local(problem, tracer, op.id(), request);
        }
        catch (const std::exception& e) {
            // Counted as a failure: the default result is not `honest`.
            std::cerr << "two_asic: " << problems_[index].name << ": "
                      << e.what() << "\n";
        }
        out.op_ms.push_back(ms_between(op_start, Clock::now()));
        counters.add(r);
        leases += r.dist.leases_granted;
        reassigned += r.dist.leases_reassigned;
        broadcasts += r.dist.incumbent_broadcasts;
        pruned_remote += r.n_pruned_remote;
        local += r.dist.leases_solved_locally;
        answers.push_back({index, multi_tuple(r, lib_), r.multi.datapaths,
                           r.multi.active && r.multi.pairs_skipped == 0 &&
                               r.status == lc::util::Solve_status::complete,
                           r.space_size});
    }
    // Stored references; a truncated solve fails however good its tuple.
    out.attempted = static_cast<long long>(answers.size());
    auto& op_item = out.op_item;
    std::vector<bool> ok;
    std::vector<double> work(problems_.size(), 0.0);
    for (const auto& a : answers) {
        const Tuple* ref = references_.find(problems_[a.problem].name);
        ok.push_back(a.honest && ref != nullptr && *ref == a.tuple);
        out.failed += ok.back() ? 0 : 1;
        op_item.push_back(a.problem);
        work[a.problem] = static_cast<double>(a.pairs);
    }
    const auto rates = pool_rates(op_item, out.op_ms, ok, work, k_solve_limit_ms);

    const double q = tail(out.op_ms).q;
    const double p50 = pool_percentile(op_item, out.op_ms, 50.0);
    const double p_tail = pool_percentile(op_item, out.op_ms, q);
    out.e2e.set("solves_per_s", rates.items_per_s, "1/s");
    out.e2e.set("solve_ms_p50", p50, "ms");
    out.e2e.set("solve_ms_p99", p_tail, "ms");
    out.e2e.set("points_per_s", rates.work_per_s, "1/s");
    // One solve is one request here: the latency is the solve's.
    out.e2e.set("req_ms_p50", p50, "ms");
    out.e2e.set("req_ms_p99", p_tail, "ms");
    out.e2e.set("goodput_rps", rates.on_time_per_s, "1/s");
    out.e2e.set("sustained_rps", rates.items_per_s, "1/s");
    const double n = static_cast<double>(answers.size());
    out.note = "solves=" + std::to_string(answers.size()) +
               " tail_q=" + std::to_string(q);
    for (std::size_t p = 0; p < problems_.size(); ++p) {
        std::vector<double> v;
        for (std::size_t i = 0; i < answers.size(); ++i)
            if (answers[i].problem == p)
                v.push_back(out.op_ms[i]);
        out.note += " " + problems_[p].name + "_ms=" +
                    std::to_string(percentile(v, 50.0));
    }

    if (tracer) {
        const auto spans = tracer->spans();
        auto& l = out.layers;
        l.set("solver.session_ms", mean_span_ms(spans, "solver.session"), "ms");
        l.set("solver.solve_ms", mean_span_ms(spans, "solver.solve"), "ms");
        l.set("dist.solve_ms", mean_span_ms(spans, "dist.solve_distributed"),
              "ms");
        double n_bsbs = 0.0;
        for (const auto& a : answers)
            n_bsbs += static_cast<double>(problems_[a.problem].bsbs.size());
        l.set("bsb.count", n > 0 ? n_bsbs / n : 0.0, "count");
        counters.report(l);
        if (distributed_) {
            l.set("dist.leases", n > 0 ? leases / n : 0.0, "count");
            l.set("dist.reassigned", n > 0 ? reassigned / n : 0.0, "count");
            l.set("dist.broadcasts", n > 0 ? broadcasts / n : 0.0, "count");
            l.set("dist.pruned_remote", n > 0 ? pruned_remote / n : 0.0,
                  "count");
            l.set("dist.local_fallback", n > 0 ? local / n : 0.0, "count");
        }
    }
    last_answers_ = std::move(answers);
    return out;
}

void Two_asic::probes(Phase_result& out, Tracer* tracer)
{
    std::vector<Probe_sample> samples;
    for (std::size_t p = 0; p < problems_.size(); ++p)
        for (const auto& a : last_answers_)
            if (a.problem == p) {
                samples.push_back({problems_[p].problem(lib_),
                                   {a.datapaths[0], a.datapaths[1]}});
                break;
            }
    probe_kernels(samples, out.layers, tracer);

    {
        // Fixed sample: straight (the cheapest problem of the set).
        Scope s(tracer, "probe.solver.thread_scaling");
        out.layers.set("solver.thread_scaling",
                       thread_scaling(problems_[1].problem(lib_),
                                      "multi_asic_bb", solve_threads()),
                       "x");
    }

    if (distributed_) {
        Scope s(tracer, "probe.dist.job_codec");
        lc::dist::Job_msg job;
        job.problem = lc::dist::Problem_blob::from_problem(
            problems_[0].problem(lib_));
        job.strategy = "multi_asic_bb";
        std::size_t bytes = 0;
        out.layers.set("dist.job_encode_us", time_us([&] {
                           const auto payload = lc::dist::encode_job(job);
                           lc::dist::Job_msg decoded;
                           if (!lc::dist::decode_job(payload, decoded))
                               throw std::runtime_error("job round trip failed");
                           bytes = payload.size();
                           return 1LL;
                       }),
                       "us");
        out.layers.set("dist.job_bytes", static_cast<double>(bytes), "bytes");
    }
}

}  // namespace

std::unique_ptr<Workload> make_two_asic(std::uint64_t seed, bool distributed)
{
    return std::make_unique<Two_asic>(seed, distributed);
}

}  // namespace perfbench
