// Session-persistent per-worker DP scratch.
//
// The engines historically built their Pace_workspace /
// Multi_pace_workspace per chunk, on the task's stack — so every DP
// checkpoint (pace.hpp) died with the solve that wrote it, and a
// follow-up solve of the same problem re-swept rows the incremental
// machinery already knew.  A Dp_workspace_pool moves those per-worker
// workspaces into the owning solver::Session: worker c of every solve
// runs on slot c, the checkpoints survive *between* solves, and a
// later solve resumes at the first divergent cost row exactly as
// within-solve reuse does — the (quantum, width) fingerprint plus the
// cost-prefix compare already guarantee resumed and cold sweeps are
// bit-identical, whoever wrote the checkpoint.  This is what makes
// serve::Server request batching pay: members of a batch share the
// slots' warm checkpoints, reported as
// Solve_result::dp_rows_reused_cross_request.
//
// Beside the slots sits the multi_asic_bb pair-walk prep, Pair_axes:
// the two allocation axes, their dominance masks and the a1 cost
// table.  The engine builds each part on first use and every later
// solve of the session reads it, so distributed leases and serve
// batches pay for it once.
//
// Threading contract: prepare() and the prep's writes are single-
// threaded (before dispatching workers); afterwards distinct workers
// may use distinct slots concurrently and read the prep.  Sessions run
// one solve at a time, which is the only serialization this needs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rmap.hpp"
#include "pace/multi_asic.hpp"
#include "pace/pace.hpp"
#include "util/arena.hpp"

namespace lycos::search {

/// One allocation on a multi_asic_bb axis, with its data-path area
/// (the pair walk compares it millions of times).
struct Axis_point {
    core::Rmap alloc;
    double area = 0.0;
};

/// The multi_asic_bb pair-walk prep of one session.  Every part is a
/// function of the session's Problem alone, so it stays valid for the
/// session's lifetime; solver/multi_asic_bb.cpp builds and documents
/// it.
struct Pair_axes {
    /// Per ASIC, every allocation whose data-path fits that ASIC's
    /// budget, in mixed-radix enumeration order.
    std::array<std::vector<Axis_point>, 2> axis;
    bool enumerated = false;

    /// The dominance screen has run (it runs at most once).
    bool screened = false;
    /// Both soundness guards held, so a solve may walk the undominated
    /// points only; the fields below are filled only then.
    bool filterable = false;
    /// Per a0 point, 1 when no other point dominates it.
    std::vector<std::uint8_t> live_rows;
    /// The undominated a1 points' indices, ascending.
    std::vector<std::int32_t> live_cols;
    std::array<long long, 2> n_live{0, 0};

    /// The a1 cost table, n_bsbs costs per row: the rows of live_cols
    /// when costs1_live, else the rows of a1 points [0, costs1_points).
    std::vector<pace::Bsb_cost> costs1;
    bool costs1_live = false;
    std::size_t costs1_points = 0;
};

/// Grow-only pool of per-worker (arena, workspace) slots owned by a
/// solver::Session and lent to the engines for the duration of one
/// solve, beside the session's Pair_axes.
class Dp_workspace_pool {
public:
    struct Slot {
        /// Declared before the workspaces it backs (destruction order).
        util::Arena arena;
        pace::Pace_workspace pace{&arena};
        pace::Multi_pace_workspace multi{&arena};
    };

    /// Ensure at least `n` slots exist and open a new logical pass:
    /// every surviving Pace checkpoint is marked as inherited, so the
    /// rows the coming solve resumes from it land in
    /// rows_reused_foreign() (the cross-request counter).  Call once
    /// per solve, before any worker touches a slot.
    void prepare(std::size_t n)
    {
        while (slots_.size() < n)
            slots_.push_back(std::make_unique<Slot>());
        for (auto& s : slots_)
            s->pace.begin_pass();
    }

    /// Slot for worker `c`; valid until the pool grows (prepare never
    /// shrinks, so slot references live across solves).
    Slot& slot(std::size_t c) { return *slots_[c]; }

    std::size_t size() const { return slots_.size(); }

    /// The session's multi_asic_bb pair-walk prep.
    Pair_axes& pair_axes() { return pair_axes_; }

private:
    std::vector<std::unique_ptr<Slot>> slots_;
    Pair_axes pair_axes_;
};

}  // namespace lycos::search
