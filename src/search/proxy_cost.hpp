// Admissible proxy costs for unscheduled projections.
//
// The branch-and-bound walker (solver/exhaustive_bb.cpp) stands in
// for exact per-BSB costs it has not scheduled yet with *optimistic*
// costs — every field at most the bsb_cost_one result — so bounds and
// screening DPs computed over them can never cut a point the exact
// costs would keep.  That machinery was exhaustive-only (buried in
// the walker's Prune_model); this header extracts the per-BSB piece
// so the hill climb's neighbour screening can use it through
// Eval_cache::find_one: neighbours whose projections are already
// memoized screen exactly for free, the rest screen on the proxy
// first and pay for real schedules only when the proxy says they
// might improve on the current point.
//
// The stand-in, mirroring bsb_cost_one's float expressions:
//   t_hw   = len * cycle_ns * profile, with len the ASAP critical
//            path under each op kind's minimum latency across ALL
//            library executors, raised to the work/capacity floors
//            ceil(ops_k * min_lat_k / cap_k) the candidate's counts
//            allow — a true lower bound on every resource-constrained
//            list schedule,
//   ctrl_area from the same length floor (controller_area is monotone
//            in the state count; in ECA mode the state count is the
//            hoisted ASAP length — allocation-independent, so exact),
//   comm, t_sw exact (allocation-independent invariants),
//   save_prev = max(0, adjacency saving) >= the exact value,
//   infeasible (a used kind with zero capacity, or a BSB nothing in
//            the library can execute) exactly as bsb_cost_one reports
//            it.
// Not sound under a storage model (its area needs the schedule) —
// check sound() before use.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pace/cost_model.hpp"
#include "search/eval_cache.hpp"

namespace lycos::search {

class Proxy_cost_model {
public:
    /// `cache` supplies the hoisted frames/invariants (shared or
    /// private — values are identical); `ctx` must be the context the
    /// cache was built from.  Both must outlive the model.
    Proxy_cost_model(const Eval_context& ctx, const Eval_cache& cache);

    /// False when no admissible proxy exists for this context (a
    /// storage model charges schedule-dependent area).
    bool sound() const { return sound_; }

    /// The admissible stand-in for bsb_cost_one(bsbs, b, ..., counts).
    pace::Bsb_cost cost(std::size_t b, std::span<const int> counts) const;

private:
    struct Term {
        bool coverable = false;  ///< some allocation can run it in HW
        double t_sw = 0.0;
        double comm = 0.0;
        double adj = 0.0;  ///< max(0, adjacency saving); 0 for BSB 0
        double profile = 0.0;
        long long asap_len = 0;
        int eca_states = 1;  ///< hoisted frames length (ECA mode)
        /// (kind index, ops-of-kind * min latency) per used kind.
        std::vector<std::pair<std::size_t, long long>> work;
    };

    bool sound_ = false;
    double cycle_ns_ = 0.0;
    hw::Gate_areas gates_{};
    pace::Controller_mode ctrl_mode_ = pace::Controller_mode::list_schedule;
    std::vector<Term> terms_;  ///< per BSB
    /// Per op kind: resource ids executing it (capacity = count sum).
    std::vector<std::vector<int>> kind_execs_;
};

}  // namespace lycos::search
