// Seeded input generation for every workload.  The program under test
// receives only what these functions return; the same seed gives
// byte-identical inputs (checked by perfbench_selftest).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bsb/bsb.hpp"
#include "estimate/storage.hpp"
#include "hw/resource.hpp"
#include "hw/target.hpp"
#include "solver/solver.hpp"

namespace perfbench {

/// The storage model design points charge when `storage` is on.
const lycos::estimate::Storage_model& default_storage();

// --- MiniC source variants -------------------------------------------

/// Every `loop N` / `trip N` trip count scaled by `factor` (at least 1).
std::string rescale_trips(std::string_view source, double factor);

/// Every loop body repeated `copies` times inside its own braces.
std::string replicate_loop_bodies(std::string_view source, int copies);

/// Every run of two or more plain assignments followed by an
/// independent renamed copy of itself (`x` -> `x_w`): the same basic
/// blocks with twice the parallel work, hence wider restrictions and a
/// larger allocation space.
std::string widen_blocks(std::string_view source);

// --- design_sweep ------------------------------------------------------

/// One single-ASIC design point: a MiniC program and its design knobs.
/// The benchmark solves each point under both controller modes.
struct Design_point {
    std::string family;  ///< app/variant, e.g. "eigen/rep"
    std::string source;  ///< MiniC text
    double area = 0.0;
    bool storage = false;
};

/// The seeded pool of design points, in visiting order: every Table-1
/// app x {base, trips, rep, wide} x storage {off, on} x three seeded
/// areas (and, for `trips`, a seeded trip-count scale).
std::vector<Design_point> design_points(std::uint64_t seed);

// --- two_asic / dist_two_asic ------------------------------------------

/// One two-ASIC problem: a Table-1 app at `area` gates, split
/// `split`/(1 - split) between the two ASICs.
struct Two_asic_case {
    std::string app;
    double area = 0.0;
    double split = 0.5;
    std::string name() const;
};

/// Areas the seeded eigen cases draw from.  The reference tuples cover
/// exactly these, so every seed has a stored answer.
inline constexpr std::array<double, 3> k_eigen_areas{6900.0, 7000.0, 7100.0};

/// man and straight at their preset areas (even split), eigen at a
/// seeded area (even split) and the same eigen at a 65/35 split.
std::vector<Two_asic_case> two_asic_cases(std::uint64_t seed);

/// A Problem with owned storage: the BSBs it spans live here.
struct Owned_problem {
    std::string name;
    std::vector<lycos::bsb::Bsb> bsbs;
    lycos::hw::Target target;
    lycos::core::Rmap restrictions;
    double area = 0.0;
    lycos::pace::Controller_mode ctrl =
        lycos::pace::Controller_mode::list_schedule;
    std::array<double, 2> asic_areas{0.0, 0.0};
    bool storage = false;  ///< charge the default storage model

    /// The solver view; `lib` must outlive it.
    lycos::solver::Problem problem(const lycos::hw::Hw_library& lib) const;
};

/// Compile a Table-1 app (by name) into a problem at `area`.
Owned_problem app_problem(const std::string& app, double area,
                          const lycos::hw::Hw_library& lib);
Owned_problem two_asic_problem(const Two_asic_case& c,
                               const lycos::hw::Hw_library& lib);

// --- serve_mix ---------------------------------------------------------

/// The request kinds of the served mix.
enum class Req_kind : std::uint8_t { auto_pick, hill_climb, multi_hal };

struct Arrival {
    double due_ms = 0.0;  ///< offset from the phase start
    int family = 0;       ///< index into the family set (Zipf rank order)
    Req_kind kind = Req_kind::auto_pick;
    bool interactive = false;
};

/// The seeded family set, hottest first: Table-1 apps at seeded area
/// variants, then seeded apps::random_bsbs problems as the cold tail.
std::vector<Owned_problem> serve_families(std::uint64_t seed,
                                          const lycos::hw::Hw_library& lib);

/// Poisson arrivals at `rate` per second over `seconds`; keys Zipf over
/// `n_families` ranks, request kinds and classes assigned by quota.
std::vector<Arrival> arrivals(std::uint64_t seed, double rate, double seconds,
                              int n_families);

/// Canonical text of every generated input for `seed` (sources,
/// problems, arrival schedules) — what the determinism self-test
/// compares byte for byte.
std::string input_fingerprint(std::uint64_t seed);

}  // namespace perfbench
