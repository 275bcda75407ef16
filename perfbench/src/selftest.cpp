// The benchmark's own checks:  python3 perfbench/run.py --selftest
//
//   - one seed yields byte-identical generated inputs (MiniC variants,
//     random problems, arrival schedules); another seed differs
//   - the variants still compile
//   - the oracles flag a deliberately perturbed tuple
//   - open-loop lag is measured, and a generator held up past the
//     fixed bound is reported as fallen behind
#include <cmath>
#include <iostream>
#include <thread>

#include "minic/lower.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what)
{
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    g_failures += ok ? 0 : 1;
}

void inputs_are_seeded()
{
    const auto a = pb::input_fingerprint(7);
    expect(a == pb::input_fingerprint(7),
           "same seed: byte-identical generated inputs");
    expect(a != pb::input_fingerprint(8), "different seed: different inputs");

    const auto s7 = pb::arrivals(7, 200.0, 2.0, 24);
    const auto s8 = pb::arrivals(8, 200.0, 2.0, 24);
    expect(!s7.empty() && (s7.size() != s8.size() ||
                           s7.front().due_ms != s8.front().due_ms),
           "different seed: different arrival schedule");

    bool compiles = true;
    for (const auto& p : pb::design_points(7)) {
        try {
            lycos::minic::compile(p.source);
        }
        catch (const std::exception& e) {
            compiles = false;
            std::cout << "      " << p.family << ": " << e.what() << "\n";
        }
    }
    expect(compiles, "every design-point variant compiles");
}

void oracle_flags_perturbation()
{
    const auto lib = lycos::hw::make_default_library();
    const auto owned = pb::app_problem("hal", 7000.0, lib);
    const auto problem = owned.problem(lib);

    lycos::solver::Session session(problem);
    const auto r = session.solve("exhaustive_bb");
    const auto answer = pb::single_tuple(r.best, lib);
    const auto reference = pb::flat_walk(problem);
    expect(answer == reference, "flat walk agrees with exhaustive_bb");

    auto perturbed = answer;
    perturbed.time_ns = std::nextafter(perturbed.time_ns, 0.0);
    expect(!(perturbed == reference), "oracle flags a one-ulp time change");
    perturbed = answer;
    perturbed.datapath += "x";
    expect(!(perturbed == reference), "oracle flags a changed data-path");

    const auto table = pb::Reference_table::load(PERFBENCH_REFERENCES);
    bool all_stored = true;
    for (std::uint64_t seed = 0; seed < 32; ++seed)
        for (const auto& c : pb::two_asic_cases(seed))
            all_stored = all_stored && table.find(c.name()) != nullptr;
    expect(all_stored, "every seed's two-ASIC cases have a stored reference");
    const auto* man = table.find(pb::two_asic_cases(0).front().name());
    if (man) {
        auto off = *man;
        off.area += 1.0;
        expect(!(off == *man), "two-ASIC oracle flags a perturbed tuple");
    }
}

void lag_is_detected()
{
    const auto schedule = pb::arrivals(3, 500.0, 0.3, 24);
    auto lags = pb::drive_open_loop(schedule, pb::Clock::now(),
                                    [](std::size_t) {});
    expect(lags.size() == schedule.size() && !pb::generator_fell_behind(lags),
           "an idle generator keeps to its schedule");
    lags = pb::drive_open_loop(schedule, pb::Clock::now(), [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
    expect(pb::generator_fell_behind(lags),
           "a generator held up 5 ms per request at 500/s is reported behind");
}

}  // namespace

int main()
{
    inputs_are_seeded();
    oracle_flags_perturbation();
    lag_is_detected();
    std::cout << (g_failures == 0 ? "all self-tests passed\n"
                                  : "self-tests FAILED\n");
    return g_failures == 0 ? 0 : 1;
}
