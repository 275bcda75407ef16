// Shared pieces of the benchmark: the seeded generator, statistics,
// metric lists, the in-memory span tracer and the result plumbing
// every workload returns through.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64 stream.  The benchmark's own inputs come from this, not
/// from std:: distributions (whose output is implementation-defined),
/// so one seed gives byte-identical inputs on any standard library.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    double real();                 ///< uniform in [0, 1)
    long long index(long long n);  ///< uniform in [0, n)
    double exponential(double rate);

private:
    std::uint64_t state_;
};

/// A sub-seed of `seed` for stream `stream` (independent streams per
/// input kind, so adding one kind never shifts another).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolated percentile, q in [0, 100]; 0 for an empty set.
double percentile(std::vector<double> v, double q);

/// The highest percentile (at most 99, at least 50) that still has ten
/// samples beyond it, and its value.
struct Tail {
    double q = 50.0;
    double value = 0.0;
};
Tail tail(const std::vector<double>& v);

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    double get(const std::string& name) const;
    const std::vector<Metric>& all() const { return items_; }

private:
    std::vector<Metric> items_;
};

/// One recorded span.  Spans of one request share `request`; `parent`
/// is the id of the span that caused it (-1 for a root).
struct Span {
    std::string name;
    int id = -1;
    int parent = -1;
    std::uint64_t request = 0;
    double start_ms = 0.0;  ///< since the tracer's origin
    double end_ms = 0.0;
};

/// In-memory span store.  Thread-safe; written out once, at the end.
class Tracer {
public:
    Tracer() : origin_(Clock::now()) {}

    int open(std::string name, int parent, std::uint64_t request);
    void close(int id);
    /// A span whose interval is already known.
    int add(std::string name, Clock::time_point start, Clock::time_point end,
            int parent, std::uint64_t request);

    std::vector<Span> spans() const;
    /// One JSON object per line: `header` first, then every span.
    void write(const std::string& path, const std::string& header) const;

private:
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// RAII span; does nothing when the tracer is null (the untraced run).
class Scope {
public:
    Scope(Tracer* tracer, const char* name, int parent = -1,
          std::uint64_t request = 0)
        : tracer_(tracer),
          id_(tracer ? tracer->open(name, parent, request) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return id_; }

private:
    Tracer* tracer_;
    int id_;
};

/// Mean duration (ms) of the spans named `name`, 0 when none.
double mean_span_ms(const std::vector<Span>& spans, const std::string& name);

/// Self time (duration minus the part covered by child spans) summed
/// per layer — the span-name prefix before the first '.'.  Layers named
/// "probe" are excluded: probes are extra work of the traced run.
std::vector<std::pair<std::string, double>> self_ms_by_layer(
    const std::vector<Span>& spans);

/// Median over the items both phases served of (traced median /
/// untraced median) - 1.
double paired_overhead(const std::vector<std::size_t>& item_a,
                       const std::vector<double>& ms_a,
                       const std::vector<std::size_t>& item_b,
                       const std::vector<double>& ms_b);

/// What one measured phase of a workload produced.
struct Phase_result {
    long long attempted = 0;
    long long failed = 0;
    Metrics e2e;
    Metrics layers;
    /// Per-operation latencies and the input item each one served — the
    /// basis of trace.overhead_frac (the traced phase re-runs the same
    /// inputs, so items pair up across the two phases).
    std::vector<double> op_ms;
    std::vector<std::size_t> op_item;
    std::string note;  ///< human-readable detail for the info line
    /// Non-empty when the measurement itself is invalid (reported as
    /// an incorrect run).
    std::string invalid;
};

struct Run_config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string out_dir;
};

int hardware_threads();
double peak_rss_mb();

/// Hex-float rendering of a double: the exact bits, for tuple checks.
std::string exact(double x);

}  // namespace perfbench
