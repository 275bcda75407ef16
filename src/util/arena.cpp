#include "util/arena.hpp"

#include <cstring>
#include <new>

namespace lycos::util {

Arena::~Arena() {
    for (const Block& b : blocks_) {
        ::operator delete(b.base, std::align_val_t{k_align});
    }
}

void* Arena::alloc(std::size_t bytes) {
    if (bytes == 0) bytes = k_align;
    bytes = (bytes + k_align - 1) & ~(k_align - 1);
    if (blocks_.empty() ||
        blocks_.back().size - blocks_.back().used < bytes) {
        // Geometric block growth keeps the block count logarithmic in
        // total footprint, so big row buffers stay contiguous.
        std::size_t size = blocks_.empty() ? k_min_block
                                           : blocks_.back().size * 2;
        if (size < bytes) size = bytes;
        char* base = static_cast<char*>(
            ::operator new(size, std::align_val_t{k_align}));
        blocks_.push_back(Block{base, size, 0});
        bytes_reserved_ += size;
    }
    Block& b = blocks_.back();
    void* p = b.base + b.used;
    // First touch: commit the carved pages from the allocating (worker)
    // thread so they land on its NUMA node.
    std::memset(p, 0, bytes);
    b.used += bytes;
    bytes_allocated_ += bytes;
    return p;
}

}  // namespace lycos::util
