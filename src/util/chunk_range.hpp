// Contiguous chunk-range math shared by every dispatcher of the
// deterministic searches: the local pool driver (parallel_chunks),
// the engines' worker-count clamps, and the distributed lease
// scheduler (src/dist/).
//
// All of them split the same thing — a logical unit range [0, n)
// (mixed-radix leaf indices for the exhaustive walker, a0 rows for
// the pair tree's leases; within one process the pair tree's workers
// claim rows one at a time instead) — into contiguous ranges whose
// sizes differ by at most one, earlier ranges taking the remainder.
// The split is pure arithmetic on (n, n_chunks, c), so a coordinator
// and its workers derive identical ranges without communicating them,
// and the in-order reduction over ranges is the same fold whether the
// ranges ran on threads of one process or on sockets across machines.
#pragma once

#include <cstddef>
#include <vector>

namespace lycos::util {

/// One contiguous range [begin, end) of logical work units.  The
/// default-constructed value is the sentinel "whole range" (end < 0),
/// used by options structs where an absent window means "no window".
struct Chunk_range {
    long long begin = 0;
    long long end = -1;

    /// True for the sentinel: no restriction, cover everything.
    bool whole() const { return end < 0; }
    long long size() const { return end - begin; }

    friend bool operator==(const Chunk_range&, const Chunk_range&) = default;
};

/// Number of chunks actually used for `n` units when `n_chunks` are
/// requested: at least 1, never more than n (empty chunks would break
/// the "sizes differ by at most one" contract the reductions index by).
std::size_t effective_chunks(long long n, std::size_t n_chunks);

/// The c-th range of the even split of [0, n) into
/// effective_chunks(n, n_chunks) ranges: base = n / k units each, the
/// first n % k ranges one unit longer.  This is bit-for-bit the
/// partition util::parallel_chunks dispatches and the engines'
/// reductions assume; chunk_of(n, k, c).begin ==
/// chunk_of(n, k, c-1).end for every c.
Chunk_range chunk_of(long long n, std::size_t n_chunks, std::size_t c);

/// All ranges of the even split, in order.  split_even(n, k) covers
/// [0, n) exactly; empty when n <= 0 or n_chunks == 0.
std::vector<Chunk_range> split_even(long long n, std::size_t n_chunks);

/// The engines' shared worker-count clamp: `requested` (0 selects
/// `fallback`, typically hardware concurrency), at most one worker
/// per unit, and never more than `cap` chunks (the reduction
/// materializes one result slot per chunk).
std::size_t clamp_chunks(int requested, std::size_t fallback, long long n,
                         long long cap = 1LL << 16);

}  // namespace lycos::util
