#include "inputs.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <regex>
#include <stdexcept>

#include "apps/apps.hpp"
#include "apps/random_app.hpp"
#include "common.hpp"
#include "core/analysis.hpp"
#include "core/restrictions.hpp"
#include "dist/wire.hpp"
#include "estimate/storage.hpp"

namespace perfbench {

namespace lc = lycos;

namespace {

// Sub-seed streams, one per input kind.
constexpr std::uint64_t k_design_stream = 1;
constexpr std::uint64_t k_two_asic_stream = 2;
constexpr std::uint64_t k_family_stream = 3;

/// Seeded areas per (app, variant, storage) in design_sweep.
constexpr int k_area_strata = 3;

lc::apps::App make_app(const std::string& name)
{
    if (name == "straight")
        return lc::apps::make_straight();
    if (name == "hal")
        return lc::apps::make_hal();
    if (name == "man")
        return lc::apps::make_man();
    if (name == "eigen")
        return lc::apps::make_eigen();
    throw std::invalid_argument("unknown app " + name);
}

const std::array<std::string, 4> k_apps{"straight", "hal", "man", "eigen"};

double round_to(double x, double step)
{
    return std::round(x / step) * step;
}

/// Position just past the integer starting at `pos` (which must be a
/// digit), with its value.
std::size_t parse_int(std::string_view s, std::size_t pos, long long& value)
{
    value = 0;
    while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos])))
        value = value * 10 + (s[pos++] - '0');
    return pos;
}

bool keyword_at(std::string_view s, std::size_t pos, std::string_view word)
{
    if (s.substr(pos, word.size()) != word)
        return false;
    const bool left_ok =
        pos == 0 || !(std::isalnum(static_cast<unsigned char>(s[pos - 1])) ||
                      s[pos - 1] == '_');
    const std::size_t end = pos + word.size();
    return left_ok && end < s.size() && s[end] == ' ';
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto b : bytes)
        h = (h ^ b) * 0x100000001b3ULL;
    return h;
}

Owned_problem problem_from(std::string name, std::vector<lc::bsb::Bsb> bsbs,
                           double area, const lc::hw::Hw_library& lib)
{
    Owned_problem p;
    p.name = std::move(name);
    p.bsbs = std::move(bsbs);
    p.area = area;
    p.target = lc::hw::make_default_target(area);
    p.restrictions = lc::core::compute_restrictions(
        lc::core::analyze(p.bsbs, lib, p.target.gates), lib);
    return p;
}

}  // namespace

const lc::estimate::Storage_model& default_storage()
{
    static const lc::estimate::Storage_model model;
    return model;
}

std::string rescale_trips(std::string_view source, double factor)
{
    std::string out;
    out.reserve(source.size());
    std::size_t i = 0;
    while (i < source.size()) {
        for (const std::string_view word : {"loop", "trip"})
            if (keyword_at(source, i, word) && i + word.size() + 1 < source.size() &&
                std::isdigit(static_cast<unsigned char>(
                    source[i + word.size() + 1]))) {
                long long n = 0;
                const std::size_t end =
                    parse_int(source, i + word.size() + 1, n);
                const auto scaled = std::max<long long>(
                    1, std::llround(static_cast<double>(n) * factor));
                out += word;
                out += ' ';
                out += std::to_string(scaled);
                i = end;
                break;
            }
        if (i < source.size())
            out += source[i++];
    }
    return out;
}

std::string replicate_loop_bodies(std::string_view source, int copies)
{
    std::string out;
    std::size_t i = 0;
    while (i < source.size()) {
        const bool loop_head =
            keyword_at(source, i, "loop") || keyword_at(source, i, "trip");
        if (!loop_head) {
            out += source[i++];
            continue;
        }
        const std::size_t open = source.find('{', i);
        if (open == std::string_view::npos)
            throw std::invalid_argument("loop without a body");
        int depth = 0;
        std::size_t close = open;
        for (; close < source.size(); ++close) {
            depth += source[close] == '{' ? 1 : source[close] == '}' ? -1 : 0;
            if (depth == 0)
                break;
        }
        if (close == source.size())
            throw std::invalid_argument("unbalanced loop body");
        // Nested loops are replicated inside each copy of the body.
        const std::string body = replicate_loop_bodies(
            source.substr(open + 1, close - open - 1), copies);
        out += source.substr(i, open + 1 - i);
        for (int c = 0; c < copies; ++c)
            out += body;
        out += '}';
        i = close + 1;
    }
    return out;
}

std::string widen_blocks(std::string_view source)
{
    static const std::regex assignment(
        R"(^(\s*)([A-Za-z_]\w*)\s*=\s*([^;{}]*);\s*(//.*)?$)");
    static const std::regex identifier(R"([A-Za-z_]\w*)");
    static const std::regex call(R"([A-Za-z_]\w*\s*\()");

    std::string out;
    std::vector<std::string> run_lines;
    auto flush = [&] {
        for (const auto& l : run_lines)
            out += l + "\n";
        if (run_lines.size() >= 2) {
            // The copy reads its own results once it has assigned them
            // and the originals before that, so it is independent work
            // inside the same basic block.
            std::vector<std::string> renamed;
            for (const auto& line : run_lines) {
                std::smatch m;
                std::regex_match(line, m, assignment);
                std::string rhs;
                const std::string expr = m[3];
                auto pos = expr.cbegin();
                for (std::sregex_iterator it(expr.begin(), expr.end(), identifier),
                     end;
                     it != end; ++it) {
                    rhs.append(pos, expr.cbegin() + it->position());
                    const std::string id = it->str();
                    rhs += std::find(renamed.begin(), renamed.end(), id) !=
                                   renamed.end()
                               ? id + "_w"
                               : id;
                    pos = expr.cbegin() + it->position() + it->length();
                }
                rhs.append(pos, expr.cend());
                out += m[1].str() + m[2].str() + "_w = " + rhs + ";\n";
                renamed.push_back(m[2]);
            }
        }
        run_lines.clear();
    };
    std::size_t begin = 0;
    while (begin < source.size()) {
        std::size_t end = source.find('\n', begin);
        if (end == std::string_view::npos)
            end = source.size();
        const std::string line(source.substr(begin, end - begin));
        std::smatch m;
        const bool simple = std::regex_match(line, m, assignment) &&
                            !std::regex_search(m[3].str(), call);
        if (simple) {
            run_lines.push_back(line);
        }
        else {
            flush();
            out += line + "\n";
        }
        begin = end + 1;
    }
    flush();
    return out;
}

std::vector<Design_point> design_points(std::uint64_t seed)
{
    Rng rng(derive_seed(seed, k_design_stream));
    std::vector<Design_point> points;
    for (const auto& name : k_apps) {
        const auto app = make_app(name);
        for (const std::string kind : {"base", "trips", "rep", "wide"})
            for (const bool storage : {false, true})
                for (int stratum = 0; stratum < k_area_strata; ++stratum) {
                    Design_point p;
                    p.family = name + "/" + kind;
                    p.storage = storage;
                    // Stratified over [0.75, 1.25] x the preset area, so every
                    // seed's pool spans the same range of budgets.
                    p.area = round_to(
                        app.asic_area *
                            (0.75 + 0.5 * (stratum + rng.real()) / k_area_strata),
                        50.0);
                    if (kind == "base")
                        p.source = app.source;
                    else if (kind == "trips")
                        p.source = rescale_trips(
                            app.source, round_to(0.5 + 1.5 * rng.real(), 0.05));
                    else if (kind == "rep")
                        p.source = replicate_loop_bodies(app.source, 2);
                    else
                        p.source = widen_blocks(app.source);
                    points.push_back(std::move(p));
                }
    }
    for (std::size_t i = points.size(); i > 1; --i)
        std::swap(points[i - 1],
                  points[static_cast<std::size_t>(
                      rng.index(static_cast<long long>(i)))]);
    return points;
}

std::string Two_asic_case::name() const
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s@%.0f/%.0f%%", app.c_str(), area,
                  split * 100.0);
    return buf;
}

std::vector<Two_asic_case> two_asic_cases(std::uint64_t seed)
{
    Rng rng(derive_seed(seed, k_two_asic_stream));
    const double eigen_area = k_eigen_areas[static_cast<std::size_t>(
        rng.index(static_cast<long long>(k_eigen_areas.size())))];
    return {{"man", lc::apps::make_man().asic_area, 0.5},
            {"straight", lc::apps::make_straight().asic_area, 0.5},
            {"eigen", eigen_area, 0.5},
            {"eigen", eigen_area, 0.65}};
}

lc::solver::Problem Owned_problem::problem(const lc::hw::Hw_library& lib) const
{
    lc::solver::Problem p;
    p.bsbs = bsbs;
    p.lib = &lib;
    p.target = target;
    p.restrictions = restrictions;
    p.ctrl_mode = ctrl;
    // The command-line flow's search quantum.
    p.area_quantum = area / 512.0;
    p.asic_areas = asic_areas;
    p.storage = storage ? &default_storage() : nullptr;
    return p;
}

Owned_problem app_problem(const std::string& app, double area,
                          const lc::hw::Hw_library& lib)
{
    auto a = make_app(app);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s@%.0f", app.c_str(), area);
    return problem_from(buf, std::move(a.bsbs), area, lib);
}

Owned_problem two_asic_problem(const Two_asic_case& c,
                               const lc::hw::Hw_library& lib)
{
    auto p = app_problem(c.app, c.area, lib);
    p.name = c.name();
    p.asic_areas = {c.area * c.split, c.area * (1.0 - c.split)};
    return p;
}

std::vector<Owned_problem> serve_families(std::uint64_t seed,
                                          const lc::hw::Hw_library& lib)
{
    Rng rng(derive_seed(seed, k_family_stream));
    std::vector<Owned_problem> families;
    // The hot head: Table-1 apps at area variants 0.85 / 1.0 / 1.15 x the
    // preset jittered by the seed, so every seed's head costs about the
    // same.  man leads: the median request is then a warm man solve, not
    // the boundary between the fast apps and the far slower eigen.
    for (int variant = 0; variant < 3; ++variant)
        for (const std::string name : {"man", "straight", "hal", "eigen"}) {
            const double scale =
                0.85 + 0.15 * variant + 0.04 * (rng.real() - 0.5);
            families.push_back(app_problem(
                name, round_to(make_app(name).asic_area * scale, 50.0), lib));
        }
    // The cold tail: seeded random applications.
    for (int i = 0; i < 12; ++i) {
        lc::apps::Random_app_params params;
        params.n_bsbs = 6;
        params.min_ops = 6;
        params.max_ops = 12;
        lc::util::Rng app_rng(rng.next());
        const double area = 500.0 * static_cast<double>(4 + rng.index(9));
        families.push_back(problem_from("random" + std::to_string(i),
                                        lc::apps::random_bsbs(app_rng, params),
                                        area, lib));
    }
    return families;
}

namespace {

/// `n` labels drawn by quota — label i exactly round(n * share[i]) times
/// (largest remainders settle the rounding) — in seeded random order.
/// Every seed then sends the same mix; only order and timing differ.
std::vector<int> by_quota(std::size_t n, const std::vector<double>& share,
                          Rng& rng)
{
    double total = 0.0;
    for (const double w : share)
        total += w;
    std::vector<std::size_t> count(share.size());
    std::vector<std::pair<double, std::size_t>> remainder;
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < share.size(); ++i) {
        const double exact_count = static_cast<double>(n) * share[i] / total;
        count[i] = static_cast<std::size_t>(exact_count);
        assigned += count[i];
        remainder.emplace_back(exact_count - static_cast<double>(count[i]), i);
    }
    std::sort(remainder.begin(), remainder.end(),
              [](const auto& a, const auto& b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });
    for (std::size_t r = 0; assigned < n; ++r, ++assigned)
        ++count[remainder[r % remainder.size()].second];
    std::vector<int> labels;
    for (std::size_t i = 0; i < count.size(); ++i)
        labels.insert(labels.end(), count[i], static_cast<int>(i));
    for (std::size_t i = labels.size(); i > 1; --i)
        std::swap(labels[i - 1],
                  labels[static_cast<std::size_t>(
                      rng.index(static_cast<long long>(i)))]);
    return labels;
}

}  // namespace

std::vector<Arrival> arrivals(std::uint64_t seed, double rate, double seconds,
                              int n_families)
{
    Rng rng(seed);
    std::vector<Arrival> out;
    for (double t = 0.0;
         (t += 1000.0 * rng.exponential(rate)) < 1000.0 * seconds;)
        out.push_back({t, 0, Req_kind::auto_pick, false});

    // Keys Zipf(1.3) over family ranks, hottest first; 80% auto, 15%
    // hill_climb, 5% hal multi_asic_bb; 20% interactive.
    std::vector<double> zipf;
    for (int k = 0; k < n_families; ++k)
        zipf.push_back(1.0 / std::pow(static_cast<double>(k + 1), 1.3));
    const auto family = by_quota(out.size(), zipf, rng);
    const auto kind = by_quota(out.size(), {0.80, 0.15, 0.05}, rng);
    const auto interactive = by_quota(out.size(), {0.8, 0.2}, rng);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].family = family[i];
        out[i].kind = static_cast<Req_kind>(kind[i]);
        out[i].interactive = interactive[i] == 1;
    }
    return out;
}

std::string input_fingerprint(std::uint64_t seed)
{
    const auto lib = lc::hw::make_default_library();
    std::string out;
    char buf[128];
    for (const auto& p : design_points(seed)) {
        std::snprintf(buf, sizeof buf, "point %s %s %d\n", p.family.c_str(),
                      exact(p.area).c_str(), p.storage ? 1 : 0);
        out += buf;
        out += p.source;
    }
    for (const auto& c : two_asic_cases(seed))
        out += "two_asic " + c.name() + "\n";
    for (const auto& f : serve_families(seed, lib)) {
        lc::dist::Job_msg job;
        job.problem = lc::dist::Problem_blob::from_problem(f.problem(lib));
        const auto bytes = lc::dist::encode_job(job);
        std::snprintf(buf, sizeof buf, "family %s %zu %016llx\n",
                      f.name.c_str(), bytes.size(),
                      static_cast<unsigned long long>(fnv1a(bytes)));
        out += buf;
    }
    for (const auto& a : arrivals(derive_seed(seed, 4), 200.0, 2.0, 24)) {
        std::snprintf(buf, sizeof buf, "arrival %s %d %d %d\n",
                      exact(a.due_ms).c_str(), a.family,
                      static_cast<int>(a.kind), a.interactive ? 1 : 0);
        out += buf;
    }
    return out;
}

}  // namespace perfbench
