#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double Rng::real()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

long long Rng::index(long long n)
{
    if (n <= 0)
        throw std::invalid_argument("Rng::index: n <= 0");
    return static_cast<long long>(next() % static_cast<std::uint64_t>(n));
}

double Rng::exponential(double rate)
{
    return -std::log1p(-real()) / rate;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream)
{
    Rng r(seed ^ (stream * 0xD6E8FEB86659FD93ULL));
    r.next();
    return r.next();
}

double percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tail tail(const std::vector<double>& v)
{
    Tail t;
    if (!v.empty()) {
        const double n = static_cast<double>(v.size());
        t.q = std::clamp(100.0 * (1.0 - 10.0 / n), 50.0, 99.0);
        t.value = percentile(v, t.q);
    }
    return t;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit)
{
    if (!std::isfinite(value))
        value = 0.0;
    for (auto& m : items_)
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    items_.push_back({name, value, unit});
}

double Metrics::get(const std::string& name) const
{
    for (const auto& m : items_)
        if (m.name == name)
            return m.value;
    return 0.0;
}

int Tracer::open(std::string name, int parent, std::uint64_t request)
{
    const double start = ms_between(origin_, Clock::now());
    std::lock_guard lock(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), id, parent, request, start, start});
    return id;
}

void Tracer::close(int id)
{
    const double end = ms_between(origin_, Clock::now());
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ms = end;
}

int Tracer::add(std::string name, Clock::time_point start,
                Clock::time_point end, int parent, std::uint64_t request)
{
    std::lock_guard lock(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), id, parent, request,
                      ms_between(origin_, start), ms_between(origin_, end)});
    return id;
}

std::vector<Span> Tracer::spans() const
{
    std::lock_guard lock(mu_);
    return spans_;
}

void Tracer::write(const std::string& path, const std::string& header) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    out << header << "\n";
    char buf[160];
    for (const auto& s : spans()) {
        std::snprintf(buf, sizeof buf,
                      "\",\"id\":%d,\"parent\":%d,\"request\":%llu,"
                      "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                      s.id, s.parent,
                      static_cast<unsigned long long>(s.request), s.start_ms,
                      s.end_ms);
        out << "{\"name\":\"" << s.name << buf;
    }
}

double mean_span_ms(const std::vector<Span>& spans, const std::string& name)
{
    long long calls = 0;
    double ms = 0.0;
    for (const auto& s : spans)
        if (s.name == name) {
            ++calls;
            ms += s.end_ms - s.start_ms;
        }
    return calls > 0 ? ms / static_cast<double>(calls) : 0.0;
}

std::vector<std::pair<std::string, double>> self_ms_by_layer(
    const std::vector<Span>& spans)
{
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const auto& s : spans)
        if (s.parent >= 0)
            child_ms[static_cast<std::size_t>(s.parent)] +=
                s.end_ms - s.start_ms;
    std::map<std::string, double> by_layer;
    for (const auto& s : spans) {
        const std::string layer = s.name.substr(0, s.name.find('.'));
        if (layer == "probe")
            continue;
        const double self = s.end_ms - s.start_ms -
                            child_ms[static_cast<std::size_t>(s.id)];
        by_layer[layer] += std::max(0.0, self);
    }
    return {by_layer.begin(), by_layer.end()};
}

double paired_overhead(const std::vector<std::size_t>& item_a,
                       const std::vector<double>& ms_a,
                       const std::vector<std::size_t>& item_b,
                       const std::vector<double>& ms_b)
{
    std::map<std::size_t, std::vector<double>> a, b;
    for (std::size_t i = 0; i < ms_a.size(); ++i)
        a[item_a[i]].push_back(ms_a[i]);
    for (std::size_t i = 0; i < ms_b.size(); ++i)
        b[item_b[i]].push_back(ms_b[i]);
    std::vector<double> ratios;
    for (const auto& [item, v] : a) {
        const auto it = b.find(item);
        const double base = percentile(v, 50.0);
        if (it != b.end() && base > 0.0)
            ratios.push_back(percentile(it->second, 50.0) / base);
    }
    return ratios.empty() ? 0.0 : percentile(ratios, 50.0) - 1.0;
}

int hardware_threads()
{
    // What `nproc` reports: the CPUs this process may run on.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string exact(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", x);
    return buf;
}

}  // namespace perfbench
