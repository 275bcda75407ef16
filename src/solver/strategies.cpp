#include <algorithm>
#include <stdexcept>

#include "search/exhaustive.hpp"
#include "search/hill_climb.hpp"
#include "solver/internal.hpp"
#include "util/thread_pool.hpp"

namespace lycos::solver {

namespace detail {

namespace {

/// The session pool, but only when the engine will actually run
/// parallel chunks: the engines clamp their thread count to the work
/// available (`work` = space size / restarts), and a tiny problem
/// should not spawn hardware-concurrency threads it never uses.
/// Null = the engine runs its single chunk inline.
util::Thread_pool* pool_for(Session& session, int requested,
                            long long work)
{
    std::size_t n = requested > 0
                        ? static_cast<std::size_t>(requested)
                        : util::Thread_pool::default_concurrency();
    n = std::min(n, static_cast<std::size_t>(std::max(1LL, work)));
    return n > 1 ? &session.pool(n) : nullptr;
}

Solve_result from_search_result(std::string_view strategy,
                                const search::Search_result& r)
{
    Solve_result out;
    out.strategy = strategy;
    out.best = r.best;
    out.have_best = r.have_best;
    out.n_pruned_remote = r.n_pruned_remote;
    out.n_evaluated = r.n_evaluated;
    out.n_pruned = r.n_pruned;
    out.space_size = r.space_size;
    out.seconds = r.seconds;
    out.n_threads = r.n_threads;
    out.cache_stats = r.cache_stats;
    out.dp_rows_reused = r.dp_rows_reused;
    out.dp_rows_swept = r.dp_rows_swept;
    out.dp_rows_reused_cross_request = r.dp_rows_reused_cross_request;
    out.status = r.status;
    out.chunks_abandoned = r.chunks_abandoned;
    out.rows_abandoned = r.rows_abandoned;
    return out;
}

}  // namespace

std::array<double, 2> multi_asic_budgets(const Problem& problem)
{
    if (problem.asic_areas[0] != 0.0 || problem.asic_areas[1] != 0.0)
        return problem.asic_areas;
    const double half = problem.target.asic.total_area / 2.0;
    return {half, half};
}

Solve_result solve_exhaustive_bb(Session& session,
                                 const Solve_options& options)
{
    extras_or_default<std::monostate>(options, "exhaustive_bb");
    search::Exhaustive_options eo;
    eo.n_threads = options.n_threads;
    eo.use_cache = options.use_cache;
    eo.use_pruning = options.use_pruning;
    eo.cache_capacity = options.cache_capacity;
    if (options.use_cache)
        eo.shared_cache = &session.cache(options.cache_capacity);
    eo.invariants = session.invariants();
    eo.pool = pool_for(session, options.n_threads,
                       options.window.whole() ? session.space_size()
                                              : options.window.size());
    eo.dp_pool = &session.workspaces();
    eo.cancel = options.cancel;
    eo.window = options.window;
    eo.incumbent_bound = options.incumbent_bound;
    return from_search_result(
        "exhaustive_bb",
        search::exhaustive_engine(session.context(),
                                  session.problem().restrictions, eo));
}

Solve_result solve_hill_climb(Session& session, const Solve_options& options)
{
    const auto extras =
        extras_or_default<Hill_climb_extras>(options, "hill_climb");
    if (!options.window.whole())
        throw std::invalid_argument(
            "hill_climb: Solve_options::window is not supported — the "
            "climb has no contiguous unit range to lease");
    search::Hill_climb_options ho;
    ho.n_restarts = extras.n_restarts;
    ho.max_steps = extras.max_steps;
    ho.n_threads = options.n_threads;
    ho.use_proxy_screen = options.use_pruning;
    ho.cache_capacity = options.cache_capacity;
    if (options.use_cache)
        ho.shared_cache = &session.cache(options.cache_capacity);
    ho.invariants = session.invariants();
    ho.pool = pool_for(session, options.n_threads, extras.n_restarts);
    ho.dp_pool = &session.workspaces();
    ho.cancel = options.cancel;
    util::Rng rng(extras.seed);
    return from_search_result(
        "hill_climb",
        search::hill_climb_engine(session.context(),
                                  session.problem().restrictions, ho, rng));
}

}  // namespace detail

namespace {

template <Solve_result (*Fn)(Session&, const Solve_options&)>
class Registered final : public Strategy {
public:
    Registered(std::string_view name, std::string_view description)
        : name_(name), description_(description)
    {
    }
    std::string_view name() const override { return name_; }
    std::string_view description() const override { return description_; }
    Solve_result solve(Session& session,
                       const Solve_options& options) const override
    {
        return Fn(session, options);
    }

private:
    std::string_view name_;
    std::string_view description_;
};

const Registered<detail::solve_exhaustive_bb> k_exhaustive_bb{
    "exhaustive_bb",
    "deterministic branch-and-bound over the full allocation space"};
const Registered<detail::solve_hill_climb> k_hill_climb{
    "hill_climb",
    "iterated steepest-ascent restarts with value-DP screening"};
const Registered<detail::solve_multi_asic_bb> k_multi_asic_bb{
    "multi_asic_bb",
    "bounded search over two-ASIC allocation pairs (Pareto-sparse DP)"};

const Strategy* const k_registry[] = {&k_exhaustive_bb, &k_hill_climb,
                                      &k_multi_asic_bb};

}  // namespace

std::span<const Strategy* const> strategies()
{
    return k_registry;
}

const Strategy* find_strategy(std::string_view name)
{
    for (const Strategy* s : k_registry)
        if (s->name() == name)
            return s;
    return nullptr;
}

}  // namespace lycos::solver
