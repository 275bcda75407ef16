// Per-worker bump arenas with first-touch placement for DP rows.
//
// The search engines hand every worker its own Arena and construct
// that worker's PACE workspaces on top of it.  Two things fall out:
//   - locality: a worker's DP rows, checkpoint arena, and traceback
//     buffers live in a handful of large contiguous blocks instead of
//     being scattered across the global heap by whichever thread
//     freed memory last;
//   - first touch: each span is zero-filled by the allocating thread
//     as it is carved out, so the OS commits its pages on the
//     node/core that will stream them (Linux first-touch NUMA
//     policy).  Engines construct workspaces inside the worker task
//     body, which makes the allocating thread the sweeping thread.
//     The unused tail of a block is never touched, so it costs
//     address space, not resident memory — with every worker of a
//     pair walk growing its arena, touching whole doubled blocks up
//     front would commit up to twice what the rows use.
//
// Allocation is bump-pointer with 64-byte (cache-line) alignment;
// deallocation is a no-op, everything is released when the Arena
// dies.  That fits the workspace lifecycle exactly: buffers only ever
// grow, and a workspace outlives every solve it is reused across.
// Vector regrowth abandons the old block inside the arena, bounding
// waste at roughly one capacity doubling per buffer.
//
// Arena_allocator<T> adapts an Arena to the std::allocator interface;
// with a null arena it degrades to plain operator new/delete, so
// default-constructed workspaces keep working untouched.
#pragma once

#include <cstddef>
#include <vector>

namespace lycos::util {

/// Grow-only bump allocator; see the header comment.  Not
/// thread-safe — one Arena per worker is the whole point.
class Arena {
public:
    Arena() = default;
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;
    ~Arena();

    /// A 64-byte-aligned, zero-filled (first-touched) span of `bytes`
    /// bytes.  Never returns nullptr for bytes > 0.
    void* alloc(std::size_t bytes);

    /// Total bytes carved out of the blocks so far.
    std::size_t bytes_allocated() const { return bytes_allocated_; }

    /// Total bytes reserved from the OS (>= bytes_allocated()).
    std::size_t bytes_reserved() const { return bytes_reserved_; }

private:
    struct Block {
        char* base = nullptr;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    static constexpr std::size_t k_align = 64;  ///< cache line
    static constexpr std::size_t k_min_block = std::size_t{1} << 18;

    std::vector<Block> blocks_;
    std::size_t bytes_allocated_ = 0;
    std::size_t bytes_reserved_ = 0;
};

/// std::allocator adapter.  arena == nullptr falls back to the global
/// heap, so containers declared with this allocator work in contexts
/// that never set an arena up (one-shot convenience entry points).
template <class T>
class Arena_allocator {
public:
    using value_type = T;

    Arena_allocator() = default;
    explicit Arena_allocator(Arena* arena) : arena_(arena) {}
    template <class U>
    Arena_allocator(const Arena_allocator<U>& other)
        : arena_(other.arena()) {}

    T* allocate(std::size_t n) {
        if (arena_ != nullptr) {
            return static_cast<T*>(arena_->alloc(n * sizeof(T)));
        }
        return static_cast<T*>(::operator new(n * sizeof(T)));
    }

    void deallocate(T* p, std::size_t) noexcept {
        if (arena_ == nullptr) ::operator delete(p);
        // Arena memory is bump-allocated; freed with the Arena.
    }

    Arena* arena() const { return arena_; }

    friend bool operator==(const Arena_allocator& a,
                           const Arena_allocator& b) {
        return a.arena_ == b.arena_;
    }
    friend bool operator!=(const Arena_allocator& a,
                           const Arena_allocator& b) {
        return !(a == b);
    }

private:
    Arena* arena_ = nullptr;
};

/// The DP buffers' vector type: heap-backed by default, arena-backed
/// when the owning workspace was given a per-worker Arena.
template <class T>
using Arena_vector = std::vector<T, Arena_allocator<T>>;

}  // namespace lycos::util
