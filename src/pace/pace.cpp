#include "pace/pace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/cancel.hpp"
#include "util/simd.hpp"

namespace lycos::pace {

namespace {

constexpr double k_inf = std::numeric_limits<double>::infinity();

/// Gain of putting BSB i in hardware (ignoring adjacency): software
/// time avoided minus hardware time and communication incurred.
double hw_gain(const Bsb_cost& c)
{
    return c.t_sw - c.t_hw - c.comm;
}

}  // namespace

Pace_result evaluate_partition(std::span<const Bsb_cost> costs,
                               const std::vector<bool>& in_hw)
{
    if (in_hw.size() != costs.size())
        throw std::invalid_argument("evaluate_partition: size mismatch");

    Pace_result r;
    r.in_hw = in_hw;
    r.time_all_sw_ns = all_sw_time_ns(costs);

    double t = 0.0;
    for (std::size_t i = 0; i < costs.size(); ++i) {
        if (in_hw[i]) {
            t += costs[i].t_hw + costs[i].comm;
            if (i > 0 && in_hw[i - 1])
                t -= costs[i].save_prev;
            r.ctrl_area_used += costs[i].ctrl_area;
            ++r.n_in_hw;
        }
        else {
            t += costs[i].t_sw;
        }
    }
    r.time_hybrid_ns = t;
    r.speedup_pct =
        t > 0.0 ? (r.time_all_sw_ns / t - 1.0) * 100.0
                : (r.time_all_sw_ns > 0.0 ? k_inf : 0.0);
    return r;
}

namespace {

/// Shared quantization of the DP table (pace_partition and
/// pace_best_saving must agree exactly).
struct Dp_setup {
    double quantum = 0.0;
    std::size_t width = 0;  ///< table width (from the table budget)
    std::size_t cap = 0;    ///< last state level within the real budget
};

Dp_setup prepare_dp(std::span<const Bsb_cost> costs,
                    const Pace_options& options, std::vector<int>& qarea,
                    std::vector<std::uint8_t>& hw_possible)
{
    if (options.ctrl_area_budget < 0.0)
        throw std::invalid_argument("pace_partition: negative budget");
    if (!std::isfinite(options.ctrl_area_budget))
        throw std::invalid_argument("pace_partition: non-finite budget");
    if (options.max_dp_width < 2)
        throw std::invalid_argument("pace_partition: max_dp_width < 2");
    if (!std::isfinite(options.table_area_budget) ||
        options.table_area_budget < 0.0)
        throw std::invalid_argument("pace_partition: bad table budget");

    // The table budget governs quantization and table width; the real
    // budget only clamps the answer.  They coincide unless the caller
    // pins a wider table for cross-call row reuse.
    const double table_budget =
        std::max(options.ctrl_area_budget, options.table_area_budget);

    Dp_setup s;
    // Effective quantum: the caller's (or the automatic budget/4096),
    // re-quantized when it would need more than max_dp_width discrete
    // area levels — a pathological budget/quantum ratio must not
    // silently allocate gigabytes of DP table.
    s.quantum = options.area_quantum > 0.0
                    ? options.area_quantum
                    : std::max(1.0, table_budget / 4096.0);
    const double cap = static_cast<double>(options.max_dp_width - 1);
    if (table_budget / s.quantum > cap)
        s.quantum = table_budget / cap;
    const int capacity = std::min(
        options.max_dp_width - 1,
        static_cast<int>(std::floor(table_budget / s.quantum)));
    s.width = static_cast<std::size_t>(capacity) + 1;
    s.cap = std::min(
        s.width - 1,
        static_cast<std::size_t>(
            std::floor(options.ctrl_area_budget / s.quantum)));

    // Quantized controller areas (rounded up, so the DP never packs
    // more real area than the budget).
    const std::size_t n = costs.size();
    qarea.assign(n, 0);
    hw_possible.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (std::isinf(costs[i].ctrl_area) || std::isinf(costs[i].t_hw))
            continue;
        qarea[i] =
            static_cast<int>(std::ceil(costs[i].ctrl_area / s.quantum));
        hw_possible[i] = static_cast<std::size_t>(qarea[i]) < s.width ? 1 : 0;
    }
    return s;
}

/// Longest prefix on which `costs` agrees with the cached cost rows
/// (value equality per field — the DP depends on nothing else).
std::size_t common_prefix(std::span<const Bsb_cost> costs,
                          const std::vector<Bsb_cost>& cached)
{
    const std::size_t m = std::min(costs.size(), cached.size());
    std::size_t i = 0;
    for (; i < m; ++i) {
        const Bsb_cost& a = costs[i];
        const Bsb_cost& b = cached[i];
        if (!(a.t_sw == b.t_sw && a.t_hw == b.t_hw && a.comm == b.comm &&
              a.save_prev == b.save_prev && a.ctrl_area == b.ctrl_area))
            break;
    }
    return i;
}

/// The DP sweep both public entry points share — templated on whether
/// the traceback tables are maintained, so the value-only screening
/// pass and the full partitioning pass can never drift apart.
///
/// value[a*2+p]: best total saving (vs. all-software) over the BSBs
/// processed so far, using quantized area exactly a, with the most
/// recent BSB on side p (0 = SW, 1 = HW).  With traceback, every
/// (i, a, p) keeps the side of BSB i-1 (parent_ plane) so the optimal
/// partition can be reconstructed; the decision of BSB i needs no
/// storage — it is the state's own lane (hw = (p == 1)).
///
/// Both row lanes are pure stores — every destination cell has
/// exactly one source area — so the row bodies are the runtime-
/// dispatched SIMD kernels of util/simd.hpp (util::simd::kernels()),
/// fetched once per sweep.  The kernel tables are bit-identical to
/// each other by construction, so the sweep's results do not depend
/// on the dispatch level.  Only the final best-state scan stays an
/// explicit scalar loop: its first-strict-maximum tie order over
/// (a, p) is part of the determinism contract.
///
/// Only the reachable-area frontier [0, hi] is ever initialized or
/// swept: row i can reach at most the previous frontier plus BSB i's
/// quantized area, which for tight budgets is far below the full
/// width.  Traceback cells outside the frontier are stale from
/// earlier calls, but every state with a finite value had its cell
/// written this call (a finite `next` entry always comes from an
/// improving write over -inf), and the backwards walk only visits
/// finite-value states.
///
/// Incremental resume: with `checkpointing` (caller-owned workspace)
/// the row states are checkpointed per BSB, and a subsequent call
/// whose costs share a prefix with the checkpointed vector under the
/// same (quantum, width) restarts the sweep at the first divergent
/// row.  The traced sweep additionally caps the resume at the prefix
/// its retained traceback rows agree on — value rows from a screening
/// call cannot vouch for traceback cells it never wrote.  Rows below
/// the resume point are untouched, which keeps them exactly what a
/// cold sweep would have produced (the prefixes are value-identical),
/// so resumed and cold runs are bit-identical.
}  // namespace

/// Friend of Pace_workspace: the shared DP sweep (see the long
/// comment on `sweep`).
struct Pace_dp {
    template <bool With_trace>
    static double sweep(std::span<const Bsb_cost> costs, const Dp_setup& s,
                        Pace_workspace& ws, bool checkpointing,
                        std::size_t* best_a, int* best_p,
                        const util::Cancel_token* cancel);
};

template <bool With_trace>
double Pace_dp::sweep(std::span<const Bsb_cost> costs, const Dp_setup& s,
                      Pace_workspace& ws, bool checkpointing,
                      std::size_t* best_a, int* best_p,
                      const util::Cancel_token* cancel)
{
    const std::size_t n = costs.size();
    const std::size_t width = s.width;
    const auto& qarea = ws.qarea_;
    const auto& hw_possible = ws.hw_possible_;
    const util::simd::Kernels& kern = util::simd::kernels();
    auto idx = [&](std::size_t a, int p) {
        return a * 2 + static_cast<std::size_t>(p);
    };

    if constexpr (With_trace) {
        if (ws.parent_.size() < n * 2 * width)
            ws.parent_.resize(n * 2 * width);
    }

    // Resume row: the longest checkpointed prefix that is valid for
    // this call.  A fingerprint mismatch (quantum or width) means the
    // cached rows describe a different table — full restart.
    std::size_t resume = 0;
    if (checkpointing) {
        if (ws.ckpt_valid_ && ws.ckpt_quantum_ == s.quantum &&
            ws.ckpt_width_ == width) {
            resume = common_prefix(costs, ws.ckpt_costs_);
            if constexpr (With_trace) {
                std::size_t trace_ok = 0;
                if (ws.trace_width_ == width)
                    trace_ok = std::min(
                        ws.trace_rows_,
                        common_prefix(costs, ws.trace_costs_));
                resume = std::min(resume, trace_ok);
            }
        }
        if (ws.ckpt_rows_.size() < (n + 1) * width * 2)
            ws.ckpt_rows_.resize((n + 1) * width * 2);
        if (ws.ckpt_hi_.size() < n + 1)
            ws.ckpt_hi_.resize(n + 1);
    }
    ws.rows_reused_ += static_cast<long long>(resume);
    ws.rows_swept_ += static_cast<long long>(n - resume);
    if (ws.ckpt_foreign_)
        ws.rows_reused_foreign_ += static_cast<long long>(resume);

    // Row storage.  Checkpointing sweeps write every row straight
    // into the workspace's row arena (block i = state after rows
    // [0, i)), so keeping the checkpoint costs no copying at all —
    // the next call just resumes from the block the prefix compare
    // picks.  One-shot sweeps roll two scratch rows instead of
    // touching an (n+1)-row arena.
    double* cur;
    double* nxt;
    if (checkpointing) {
        cur = ws.ckpt_rows_.data() + resume * width * 2;
        nxt = cur + width * 2;
    }
    else {
        if (ws.value_.size() < width * 2)
            ws.value_.resize(width * 2);
        if (ws.next_.size() < width * 2)
            ws.next_.resize(width * 2);
        cur = ws.value_.data();
        nxt = ws.next_.data();
    }

    std::size_t hi;
    if (resume == 0) {
        cur[idx(0, 0)] = 0.0;
        cur[idx(0, 1)] = -k_inf;
        hi = 0;
        if (checkpointing)
            ws.ckpt_hi_[0] = 0;
    }
    else {
        hi = ws.ckpt_hi_[resume];
    }

    for (std::size_t i = resume; i < n; ++i) {
        // Row-stripe poll: charge the cells this row will touch and
        // bail on a tripped token.  Flag-only — no clock here.  A
        // partially overwritten row arena cannot be resumed from, so
        // the checkpoint is dropped with the sweep.
        if (cancel != nullptr) {
            cancel->charge_dp_cells((hi + 1) * 2);
            if (cancel->tripped()) {
                ws.invalidate_checkpoint();
                return -k_inf;
            }
        }
        const std::size_t qa = static_cast<std::size_t>(qarea[i]);
        const bool can_hw = hw_possible[i] != 0;
        const std::size_t hi2 = can_hw ? std::min(hi + qa, width - 1) : hi;
        const double gain = can_hw ? hw_gain(costs[i]) : 0.0;
        // Two lanes of pure stores — every next-cell has exactly one
        // source area: (a, SW) from (a, *), (a+qa, HW) from (a, *) —
        // handed to the dispatched kernels.  -inf propagates through
        // the adds, so unreachable sources yield unreachable
        // destinations without per-cell branching.
        const double gain_save = i > 0 ? gain + costs[i].save_prev : gain;
        const std::size_t a_max =
            can_hw ? std::min(hi, width - 1 - qa)  // qa < width (possible)
                   : 0;
        kern.pace_row_sw(cur, nxt, hi + 1);
        std::fill(nxt + (hi + 1) * 2, nxt + (hi2 + 1) * 2, -k_inf);
        if (can_hw)
            kern.pace_row_hw(cur, nxt + qa * 2, a_max + 1, gain, gain_save);
        if constexpr (With_trace) {
            // Parents per destination lane: strictly-greater against
            // the p = 0 source, exactly the improving-write order the
            // per-cell loop used.  Cells outside the lanes' written
            // ranges keep stale bytes, but their values are -inf and
            // the backwards walk only visits finite states.
            std::uint8_t* plane0 = ws.parent_.data() + (i * 2) * width;
            std::uint8_t* plane1 = plane0 + width;
            kern.pace_row_parent(cur, plane0, hi + 1, 0.0, 0.0);
            if (can_hw)
                kern.pace_row_parent(cur, plane1 + qa, a_max + 1, gain,
                                     gain_save);
        }
        hi = hi2;
        if (checkpointing) {
            cur = nxt;
            nxt += width * 2;
            ws.ckpt_hi_[i + 1] = hi;
        }
        else {
            std::swap(cur, nxt);
        }
    }

    if (checkpointing) {
        ws.ckpt_costs_.assign(costs.begin(), costs.end());
        ws.ckpt_quantum_ = s.quantum;
        ws.ckpt_width_ = width;
        ws.ckpt_valid_ = true;
        if (ws.anchor_armed_) {
            // First checkpointed sweep of the pass: capture it as the
            // next pass's resume base — unless it IS the restored
            // anchor, resumed whole (contents already identical).
            ws.anchor_armed_ = false;
            if (!(ws.ckpt_foreign_ && ws.anchor_valid_ && resume == n)) {
                const std::size_t blocks = (n + 1) * width * 2;
                if (ws.anchor_rows_.size() < blocks)
                    ws.anchor_rows_.resize(blocks);
                std::copy(ws.ckpt_rows_.data(),
                          ws.ckpt_rows_.data() + blocks,
                          ws.anchor_rows_.data());
                ws.anchor_costs_.assign(costs.begin(), costs.end());
                ws.anchor_hi_.assign(ws.ckpt_hi_.begin(),
                                     ws.ckpt_hi_.begin() +
                                         static_cast<std::ptrdiff_t>(n + 1));
                ws.anchor_quantum_ = s.quantum;
                ws.anchor_width_ = width;
                ws.anchor_valid_ = true;
            }
        }
        ws.ckpt_foreign_ = false;  // rewritten by this pass
        if constexpr (With_trace) {
            ws.trace_costs_.assign(costs.begin(), costs.end());
            ws.trace_width_ = width;
            ws.trace_rows_ = n;
        }
    }

    // Final answer: only states within the *real* budget count (the
    // table may be wider when a table budget pins the width).
    const std::size_t last = std::min(hi, s.cap);
    double best = -k_inf;
    for (std::size_t a = 0; a <= last; ++a)
        for (int p = 0; p < 2; ++p)
            if (cur[idx(a, p)] > best) {
                best = cur[idx(a, p)];
                if (best_a != nullptr) {
                    *best_a = a;
                    *best_p = p;
                }
            }
    return best;
}

namespace {

/// Checkpointing stores n+1 value rows; above this arena size (doubles)
/// the workspace path falls back to the two-row scratch so the
/// max_dp_width guard's promise — no pathological quantum allocates
/// gigabytes — keeps holding.  2^22 doubles = 32 MB, far above every
/// search configuration (the search's tables are a few hundred levels
/// wide) and far below the widths only an explicit ultra-fine quantum
/// can produce.  Results are identical either way; only
/// rows_reused()/rows_swept() notice.
constexpr std::size_t k_max_ckpt_doubles = std::size_t{1} << 22;

bool want_checkpoint(const Pace_workspace* workspace,
                     std::size_t n, std::size_t width)
{
    return workspace != nullptr && (n + 1) * width * 2 <= k_max_ckpt_doubles;
}

}  // namespace

void Pace_workspace::begin_pass()
{
    // Arm the anchor capture: this pass's first checkpointed sweep
    // becomes the resume base the *next* pass starts from.
    anchor_armed_ = true;
    if (anchor_valid_) {
        // Restore the previous pass's first sweep as the active
        // checkpoint.  The copy re-establishes exactly a state an
        // earlier sweep left behind, so resume correctness is the
        // ordinary checkpoint contract; the retained traceback rows
        // (trace_costs_/trace_rows_) still describe the parent planes,
        // which this restore does not touch.
        const std::size_t blocks =
            (anchor_costs_.size() + 1) * anchor_width_ * 2;
        if (ckpt_rows_.size() < blocks)
            ckpt_rows_.resize(blocks);
        std::copy(anchor_rows_.data(), anchor_rows_.data() + blocks,
                  ckpt_rows_.data());
        if (ckpt_hi_.size() < anchor_costs_.size() + 1)
            ckpt_hi_.resize(anchor_costs_.size() + 1);
        std::copy(anchor_hi_.begin(),
                  anchor_hi_.begin() +
                      static_cast<std::ptrdiff_t>(anchor_costs_.size() + 1),
                  ckpt_hi_.begin());
        ckpt_costs_ = anchor_costs_;
        ckpt_quantum_ = anchor_quantum_;
        ckpt_width_ = anchor_width_;
        ckpt_valid_ = true;
    }
    ckpt_foreign_ = ckpt_valid_;
}

double pace_best_saving(std::span<const Bsb_cost> costs,
                        const Pace_options& options,
                        Pace_workspace* workspace)
{
    Pace_workspace local;
    Pace_workspace& ws = workspace != nullptr ? *workspace : local;
    const Dp_setup s = prepare_dp(costs, options, ws.qarea_, ws.hw_possible_);
    if (costs.empty())
        return 0.0;
    return Pace_dp::sweep<false>(
        costs, s, ws, want_checkpoint(workspace, costs.size(), s.width),
        nullptr, nullptr, options.cancel);
}

Pace_result pace_partition(std::span<const Bsb_cost> costs,
                           const Pace_options& options,
                           Pace_workspace* workspace)
{
    const std::size_t n = costs.size();
    // DP buffers: caller-owned when a workspace is given (the search
    // hot loop), otherwise local.  Buffers only grow; cells are
    // (re)initialized lazily in the sweep, so stale contents from
    // previous calls are never read.
    Pace_workspace local;
    Pace_workspace& ws = workspace != nullptr ? *workspace : local;

    const Dp_setup s = prepare_dp(costs, options, ws.qarea_, ws.hw_possible_);
    if (n == 0)
        return Pace_result{};
    const std::size_t width = s.width;

    std::size_t best_a = 0;
    int best_p = 0;
    const bool checkpointing = want_checkpoint(workspace, n, s.width);
    if (workspace != nullptr && !checkpointing) {
        // This traced sweep overwrites traceback rows without
        // recording what produced them — a later checkpointing call
        // must not trust them.
        ws.trace_rows_ = 0;
    }
    const double best =
        Pace_dp::sweep<true>(costs, s, ws, checkpointing, &best_a, &best_p,
                             options.cancel);
    if (best == -k_inf) {
        // Aborted mid-sweep: the traceback rows are unusable, but the
        // all-software partition is always a valid honest answer.
        Pace_result r =
            evaluate_partition(costs, std::vector<bool>(n, false));
        r.area_quantum_used = s.quantum;
        return r;
    }

    // Walk the parent planes backwards from the best final state.  A
    // state's lane is its own decision (hw = p == 1); the plane byte
    // is the side of the previous BSB on the best path.
    std::vector<bool> in_hw(n, false);
    std::size_t a = best_a;
    int p = best_p;
    for (std::size_t ri = n; ri-- > 0;) {
        const bool hw = p == 1;
        const int prev =
            ws.parent_[(ri * 2 + static_cast<std::size_t>(p)) * width + a];
        in_hw[ri] = hw;
        if (hw)
            a -= static_cast<std::size_t>(ws.qarea_[ri]);
        p = prev;
    }

    Pace_result r = evaluate_partition(costs, in_hw);
    r.area_quantum_used = s.quantum;
    return r;
}

}  // namespace lycos::pace
