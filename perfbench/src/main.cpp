// The LYCOS repository benchmark.  Usually run through run.py:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit ID] [--out-dir DIR]
//   perfbench --record-references FILE
//
// --trace 0 measures the workload for S seconds and prints every
// end-to-end metric.  --trace 1 measures S/2 seconds untraced and then
// the same inputs for S/2 seconds traced, runs the layer probes, writes
// the spans to DIR and prints every per-layer metric, including
// trace.overhead_frac (traced against untraced per-operation latency).
// The last stdout line is the JSON result; the line before it is the
// environment stamp.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>

#include "oracle.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int k_setups = 9;

std::string json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string number(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

std::string env_stamp(const pb::Run_config& cfg)
{
    return "{\"env\": {\"nproc\": " + std::to_string(pb::hardware_threads()) +
           ", \"isa\": " +
           json_string(lycos::util::simd::isa_name(
               lycos::util::simd::active_isa())) +
           ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
           ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
           ", \"commit\": " + json_string(cfg.commit) +
           ", \"seed\": " + std::to_string(cfg.seed) +
           ", \"workload\": " + json_string(cfg.workload) +
           ", \"seconds\": " + number(cfg.seconds) +
           ", \"trace\": " + (cfg.trace ? "1" : "0") + "}}";
}

int record_references(const std::string& path)
{
    const auto lib = lycos::hw::make_default_library();
    pb::Reference_table table;
    std::set<std::string> done;
    for (std::uint64_t seed = 0; done.size() < 2 + 2 * pb::k_eigen_areas.size();
         ++seed)
        for (const auto& c : pb::two_asic_cases(seed)) {
            if (!done.insert(c.name()).second)
                continue;
            const auto owned = pb::two_asic_problem(c, lib);
            const auto t = pb::two_asic_reference(owned.problem(lib),
                                                  pb::hardware_threads());
            std::cerr << c.name() << " " << t.str() << "\n";
            table.put(c.name(), t);
        }
    table.save(path);
    return 0;
}

pb::Run_config parse(int argc, char** argv, std::string& record)
{
    pb::Run_config cfg;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            cfg.workload = value;
            have_workload = true;
        }
        else if (flag == "--seed")
            cfg.seed = std::stoull(value);
        else if (flag == "--seconds")
            cfg.seconds = std::stod(value);
        else if (flag == "--trace")
            cfg.trace = std::stoi(value) != 0;
        else if (flag == "--commit")
            cfg.commit = value;
        else if (flag == "--out-dir")
            cfg.out_dir = value;
        else if (flag == "--record-references")
            record = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (record.empty() && !have_workload)
        throw std::invalid_argument("--workload is required");
    if (!(cfg.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return cfg;
}

}  // namespace

int main(int argc, char** argv)
{
    pb::Run_config cfg;
    std::string record;
    try {
        cfg = parse(argc, argv, record);
        if (!record.empty())
            return record_references(record);
    }
    catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    auto workload = pb::make_workload(cfg.workload, cfg.seed);
    if (!workload) {
        std::cerr << "perfbench: unknown workload " << cfg.workload << " (";
        for (const auto& n : pb::workload_names())
            std::cerr << " " << n;
        std::cerr << " )\n";
        return 2;
    }

    try {
        std::vector<double> setup_s;
        for (int k = 0; k < k_setups; ++k) {
            const auto t0 = pb::Clock::now();
            workload->setup();
            setup_s.push_back(pb::ms_between(t0, pb::Clock::now()) / 1000.0);
        }

        long long attempted = 0, failed = 0;
        std::string note, invalid;
        pb::Metrics printed;
        if (!cfg.trace) {
            auto r = workload->run(cfg.seconds, nullptr);
            attempted = r.attempted;
            failed = r.failed;
            note = r.note;
            invalid = r.invalid;
            r.e2e.set("setup_s", pb::percentile(setup_s, 50.0), "s");
            r.e2e.set("peak_rss_mb", pb::peak_rss_mb(), "MB");
            for (const auto& spec : pb::k_end_to_end)
                printed.set(spec.name, r.e2e.get(spec.name), spec.unit);
        }
        else {
            const auto plain = workload->run(cfg.seconds / 2.0, nullptr);
            pb::Tracer tracer;
            auto traced = workload->run(cfg.seconds / 2.0, &tracer);
            workload->probes(traced, &tracer);
            attempted = plain.attempted + traced.attempted;
            failed = plain.failed + traced.failed;
            note = traced.note;
            invalid = !plain.invalid.empty() ? plain.invalid : traced.invalid;

            traced.layers.set("trace.overhead_frac",
                              pb::paired_overhead(plain.op_item, plain.op_ms,
                                                  traced.op_item, traced.op_ms),
                              "frac");
            const auto spans = tracer.spans();
            long long roots = 0;
            for (const auto& s : spans)
                roots += s.parent < 0 && s.name.rfind("probe.", 0) != 0;
            for (const auto& [layer, ms] : pb::self_ms_by_layer(spans))
                traced.layers.set("self." + layer + "_ms",
                                  roots > 0 ? ms / static_cast<double>(roots)
                                            : 0.0,
                                  "ms");
            for (const auto& spec : pb::k_per_layer)
                printed.set(spec.name, traced.layers.get(spec.name), spec.unit);

            if (!cfg.out_dir.empty()) {
                std::filesystem::create_directories(cfg.out_dir);
                tracer.write(cfg.out_dir + "/" + cfg.workload + "-seed" +
                                 std::to_string(cfg.seed) + ".jsonl",
                             env_stamp(cfg));
            }
        }

        if (!invalid.empty())
            std::cerr << "perfbench: invalid run: " << invalid << "\n";
        if (failed > 0)
            std::cerr << "perfbench: " << failed << " of " << attempted
                      << " operations failed their check\n";
        std::cout << env_stamp(cfg) << "\n";
        std::cout << "{\"info\": " << json_string(note) << "}\n";
        std::string line = "{\"correct\": ";
        line += failed == 0 && invalid.empty() ? "true" : "false";
        line += ", \"attempted\": " + std::to_string(attempted) +
                ", \"failed\": " + std::to_string(failed) +
                ", \"metrics\": {";
        bool first = true;
        for (const auto& m : printed.all()) {
            line += (first ? "" : ", ") + json_string(m.name) +
                    ": {\"value\": " + number(m.value) +
                    ", \"unit\": " + json_string(m.unit) + "}";
            first = false;
        }
        std::cout << line << "}}" << std::endl;
        return 0;
    }
    catch (const std::exception& e) {
        std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
}
