#include "search/alloc_space.hpp"

#include <limits>
#include <stdexcept>

namespace lycos::search {

Alloc_space::Alloc_space(const hw::Hw_library& lib,
                         const core::Rmap& restrictions)
    : lib_(lib)
{
    for (const auto& [r, bound] : restrictions.entries())
        if (bound > 0)
            dims_.emplace_back(r, bound);
}

long long Alloc_space::size() const
{
    constexpr long long k_max = std::numeric_limits<long long>::max();
    // Accumulate in 128 bits and saturate: a restriction map with many
    // generous bounds can push the product past 2^63, and the callers
    // only ever compare the size against evaluation budgets.
    __int128 n = 1;
    for (const auto& [r, bound] : dims_) {
        n *= static_cast<__int128>(bound) + 1;
        if (n > static_cast<__int128>(k_max))
            return k_max;
    }
    return static_cast<long long>(n);
}

void Alloc_space::for_each(
    double max_area, const std::function<bool(const core::Rmap&)>& visit) const
{
    for_each_range(0, size(), max_area, visit);
}

void Alloc_space::for_each_range(
    long long begin, long long end, double max_area,
    const std::function<bool(const core::Rmap&)>& visit) const
{
    if (begin < 0 || begin > end || end > size())
        throw std::out_of_range("Alloc_space::for_each_range");

    // Seed the mixed-radix counter with the digits of `begin`.
    std::vector<int> counter = decompose(begin);

    for (long long index = begin; index < end; ++index) {
        double area = 0.0;
        for (std::size_t d = 0; d < dims_.size(); ++d)
            if (counter[d] > 0)
                area += lib_[dims_[d].first].area * counter[d];
        // Only a visited point pays for its Rmap.
        if (area <= max_area) {
            core::Rmap a;
            for (std::size_t d = 0; d < dims_.size(); ++d)
                if (counter[d] > 0)
                    a.set(dims_[d].first, counter[d]);
            if (!visit(a))
                return;
        }

        // Increment the mixed-radix counter.  Compare before
        // incrementing: ++ on a digit already at a bound of INT_MAX
        // would overflow and drop the carry.
        std::size_t d = 0;
        while (d < dims_.size()) {
            if (counter[d] < dims_[d].second) {
                ++counter[d];
                break;
            }
            counter[d] = 0;
            ++d;
        }
    }
}

core::Rmap Alloc_space::nth(long long index) const
{
    if (index < 0 || index >= size())
        throw std::out_of_range("Alloc_space::nth");
    const auto digits = decompose(index);
    core::Rmap a;
    for (std::size_t d = 0; d < dims_.size(); ++d)
        if (digits[d] > 0)
            a.set(dims_[d].first, digits[d]);
    return a;
}

core::Rmap Alloc_space::greedy_fill(const hw::Hw_library& lib,
                                    double budget) const
{
    core::Rmap greedy;
    double area = 0.0;
    for (const auto& [id, bound] : dims_) {
        const double unit = lib[id].area;
        int c = bound;
        while (c > 0 && area + unit * c > budget)
            --c;
        greedy.set(id, c);
        area += unit * c;
    }
    return greedy;
}

std::vector<int> Alloc_space::decompose(long long index) const
{
    std::vector<int> digits(dims_.size(), 0);
    for (std::size_t d = 0; d < dims_.size(); ++d) {
        // Widen before the +1: a bound of INT_MAX must not overflow.
        const long long radix =
            static_cast<long long>(dims_[d].second) + 1;
        digits[d] = static_cast<int>(index % radix);
        index /= radix;
    }
    return digits;
}

}  // namespace lycos::search
