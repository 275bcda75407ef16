// Answer references, computed outside the timed window.
//
//   single-ASIC  a flat walk scoring every fitting point of the space
//                with search::evaluate_allocation — no cache, no
//                workspace, no pruning
//   two-ASIC     tuples recorded once (references/two_asic.tsv) from a
//                walk with pruning and the row bound both off
//   served       serve::replay_rung on a fresh session
#pragma once

#include <map>
#include <string>
#include <vector>

#include "solver/solver.hpp"

namespace perfbench {

/// The answer tuple every check compares: hybrid time and data-path
/// area bit for bit, plus the data-path(s) in library notation.
struct Tuple {
    double time_ns = 0.0;
    double area = 0.0;
    std::string datapath;

    bool operator==(const Tuple&) const = default;
    std::string str() const;
};

Tuple single_tuple(const lycos::search::Evaluation& e,
                   const lycos::hw::Hw_library& lib);
/// Tuple of the best two-ASIC pair of a multi_asic_bb result.
Tuple multi_tuple(const lycos::solver::Solve_result& r,
                  const lycos::hw::Hw_library& lib);
/// Tuple of whatever a Solve_result answers (single or two-ASIC).
Tuple result_tuple(const lycos::solver::Solve_result& r,
                   const lycos::hw::Hw_library& lib);

/// The single-ASIC flat walk at the problem's search quantum: the best
/// tuple with ties toward enumeration order (the exhaustive_bb
/// contract).
Tuple flat_walk(const lycos::solver::Problem& problem);

/// The evaluation of `datapath` at the problem's search quantum,
/// uncached — what a search's reported best must equal.
Tuple search_score(const lycos::solver::Problem& problem,
                   const lycos::core::Rmap& datapath);

/// The exact (quantum-free) evaluation of `datapath`, uncached — what
/// Session::rescore must reproduce.
Tuple exact_score(const lycos::solver::Problem& problem,
                  const lycos::core::Rmap& datapath);

/// Stored two-ASIC reference tuples, keyed by Two_asic_case::name().
class Reference_table {
public:
    /// Throws when the file is missing or malformed.
    static Reference_table load(const std::string& path);
    /// nullptr when no tuple is stored for `name`.
    const Tuple* find(const std::string& name) const;
    void put(const std::string& name, const Tuple& t) { rows_[name] = t; }
    void save(const std::string& path) const;

private:
    std::map<std::string, Tuple> rows_;
};

/// The reference walk for one two-ASIC problem: multi_asic_bb with
/// pruning, the row bound and the pair limit all off.
Tuple two_asic_reference(const lycos::solver::Problem& problem, int n_threads);

}  // namespace perfbench
