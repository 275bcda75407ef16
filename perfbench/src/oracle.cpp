#include "oracle.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "search/alloc_space.hpp"

namespace perfbench {

namespace lc = lycos;

namespace {

lc::search::Eval_context context_of(const lc::solver::Problem& p,
                                    double quantum)
{
    lc::search::Eval_context ctx{p.bsbs, *p.lib, p.target, p.ctrl_mode,
                                 quantum};
    ctx.storage = p.storage;
    ctx.scheduler = p.scheduler;
    return ctx;
}

double parse_hex(const std::string& s)
{
    std::size_t used = 0;
    const double x = std::stod(s, &used);
    if (used != s.size())
        throw std::invalid_argument("bad number " + s);
    return x;
}

}  // namespace

std::string Tuple::str() const
{
    return "(" + exact(time_ns) + ", " + exact(area) + ", " + datapath + ")";
}

Tuple single_tuple(const lc::search::Evaluation& e,
                   const lc::hw::Hw_library& lib)
{
    return {e.partition.time_hybrid_ns, e.datapath_area,
            e.datapath.to_string(lib)};
}

Tuple multi_tuple(const lc::solver::Solve_result& r,
                  const lc::hw::Hw_library& lib)
{
    const auto& m = r.multi;
    return {m.partition.time_hybrid_ns,
            m.datapath_area[0] + m.datapath_area[1],
            m.datapaths[0].to_string(lib) + " | " +
                m.datapaths[1].to_string(lib)};
}

Tuple result_tuple(const lc::solver::Solve_result& r,
                   const lc::hw::Hw_library& lib)
{
    return r.multi.active ? multi_tuple(r, lib) : single_tuple(r.best, lib);
}

Tuple flat_walk(const lc::solver::Problem& problem)
{
    const auto ctx = context_of(problem, problem.area_quantum);
    const lc::search::Alloc_space space(*problem.lib, problem.restrictions);
    bool have = false;
    lc::search::Evaluation best;
    space.for_each(problem.target.asic.total_area,
                   [&](const lc::core::Rmap& datapath) {
                       auto e = lc::search::evaluate_allocation(ctx, datapath);
                       if (!have || lc::search::better_than(e, best)) {
                           best = std::move(e);
                           have = true;
                       }
                       return true;
                   });
    return single_tuple(best, *problem.lib);
}

Tuple search_score(const lc::solver::Problem& problem,
                   const lc::core::Rmap& datapath)
{
    return single_tuple(lc::search::evaluate_allocation(
                            context_of(problem, problem.area_quantum), datapath),
                        *problem.lib);
}

Tuple exact_score(const lc::solver::Problem& problem,
                  const lc::core::Rmap& datapath)
{
    return single_tuple(lc::search::evaluate_allocation(
                            context_of(problem, 0.0), datapath),
                        *problem.lib);
}

Reference_table Reference_table::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open reference tuples " + path);
    Reference_table table;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, time, area, datapath;
        if (!std::getline(fields, name, '\t') ||
            !std::getline(fields, time, '\t') ||
            !std::getline(fields, area, '\t') ||
            !std::getline(fields, datapath))
            throw std::runtime_error("malformed reference line: " + line);
        table.rows_[name] = {parse_hex(time), parse_hex(area), datapath};
    }
    return table;
}

const Tuple* Reference_table::find(const std::string& name) const
{
    const auto it = rows_.find(name);
    return it == rows_.end() ? nullptr : &it->second;
}

void Reference_table::save(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "# Two-ASIC reference tuples: case, hybrid time (ns), total\n"
           "# data-path area, data-paths.  Recorded by `perfbench\n"
           "# --record-references` from multi_asic_bb walks with pruning,\n"
           "# the row bound and the pair limit all off.\n";
    for (const auto& [name, t] : rows_)
        out << name << '\t' << exact(t.time_ns) << '\t' << exact(t.area)
            << '\t' << t.datapath << '\n';
}

Tuple two_asic_reference(const lc::solver::Problem& problem, int n_threads)
{
    lc::solver::Session session(problem);
    lc::solver::Solve_options opts;
    opts.n_threads = n_threads;
    opts.use_pruning = false;
    opts.extras =
        lc::solver::Multi_asic_extras{.pair_limit = 0, .use_row_bound = false};
    const auto r = session.solve("multi_asic_bb", opts);
    if (r.multi.pairs_skipped != 0 ||
        r.status != lc::util::Solve_status::complete)
        throw std::runtime_error("reference walk did not cover the space");
    return multi_tuple(r, *problem.lib);
}

}  // namespace perfbench
