/**
 * @file
 * Sparse paged memory for simulated programs.
 *
 * Pages are 16 KB (the Linux/ia64 default the paper's system used).
 * Accesses to unmapped pages are *not* errors at this level — the
 * interpreter decides whether an unmapped access is a program fault
 * (non-speculative access) or a deferred NaT result (speculative access),
 * and the timing model charges the corresponding TLB/OS walk costs.
 *
 * Page lookups go through a 2-entry most-recently-used cache in front of
 * the page hash table: simulated programs exhibit strong page locality
 * (stack + one data structure), so the common case costs one compare
 * instead of a hash probe. Pages are never unmapped, so cached page
 * pointers cannot dangle. The cache is internal mutable state — Memory
 * is not safe for concurrent use from multiple threads (each simulation
 * run owns its own Memory instance).
 */
#ifndef EPIC_SIM_MEMORY_H
#define EPIC_SIM_MEMORY_H

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace epic {

class Program;

/** Sparse byte-addressable memory with 16 KB pages. */
class Memory
{
  public:
    static constexpr uint64_t kPageBits = 14;
    static constexpr uint64_t kPageSize = 1ull << kPageBits;
    static constexpr uint64_t kPageMask = kPageSize - 1;

    /** Map (zero-fill) every page covering [addr, addr+size). */
    void mapRange(uint64_t addr, uint64_t size);

    /** True if the page containing addr is mapped. */
    bool
    isMapped(uint64_t addr) const
    {
        return lookupPage(addr >> kPageBits) != nullptr;
    }

    /** Page-number accessor (for TLB modelling). */
    static uint64_t
    pageOf(uint64_t addr)
    {
        return addr >> kPageBits;
    }

    /**
     * Read `size` (1/2/4/8) bytes, little-endian, zero-extended.
     * All covered pages must be mapped.
     */
    uint64_t read(uint64_t addr, int size) const;

    /** Write the low `size` bytes of value. Pages must be mapped. */
    void write(uint64_t addr, uint64_t value, int size);

    /**
     * Single-lookup read used by the exec core: reads `size` bytes into
     * `out` and returns true, or returns false (leaving `out` untouched)
     * when any covered page is unmapped. Replaces the isMapped() +
     * read() double lookup on the load hot path. Header-inline so the
     * page-cache hit path folds into the simulator loops.
     */
    bool
    tryRead(uint64_t addr, int size, uint64_t &out) const
    {
        const uint64_t off = addr & kPageMask;
        const uint8_t *p = lookupPage(addr >> kPageBits);
        if (!p)
            return false;
        if (off + static_cast<uint64_t>(size) <= kPageSize) {
            uint64_t v = 0;
            std::memcpy(&v, p + off, static_cast<size_t>(size));
            out = v;
            return true;
        }
        return tryReadCross(addr, size, out);
    }

    /** Single-lookup write counterpart: false (and no memory change)
     *  when any covered page is unmapped. */
    bool
    tryWrite(uint64_t addr, uint64_t value, int size)
    {
        const uint64_t off = addr & kPageMask;
        uint8_t *p = lookupPage(addr >> kPageBits);
        if (!p)
            return false;
        if (off + static_cast<uint64_t>(size) <= kPageSize) {
            std::memcpy(p + off, &value, static_cast<size_t>(size));
            return true;
        }
        return tryWriteCross(addr, value, size);
    }

    /** Bulk host-side accessors (map pages on demand for writes). */
    void writeBytes(uint64_t addr, const uint8_t *data, uint64_t len);
    void readBytes(uint64_t addr, uint8_t *out, uint64_t len) const;

    /** Build the initial image for a program: data symbols + stack. */
    void initFromProgram(const Program &prog);

    /** Number of mapped pages (footprint diagnostics + heap budget). */
    size_t mappedPages() const { return pages_.size(); }

    /**
     * Chaos injection (support/faultinject.h): flip one bit of the
     * mapped image, chosen deterministically by `sel` over the sorted
     * page list. Returns the affected byte address. Requires at least
     * one mapped page.
     */
    uint64_t flipBit(uint64_t sel);

  private:
    uint8_t *pageFor(uint64_t addr, bool create);
    const uint8_t *pageForRead(uint64_t addr) const;

    /** Cache-accelerated page lookup (null when unmapped). Returns a
     *  mutable pointer; const because the MRU cache is logically
     *  invisible state. */
    uint8_t *
    lookupPage(uint64_t pn) const
    {
        if (cache_pn_[cache_mru_] == pn)
            return cache_page_[cache_mru_];
        const uint32_t other = cache_mru_ ^ 1u;
        if (cache_pn_[other] == pn) {
            cache_mru_ = other;
            return cache_page_[other];
        }
        return lookupPageSlow(pn);
    }

    /** Hash-table probe on a 2-entry-cache miss (out of line). */
    uint8_t *lookupPageSlow(uint64_t pn) const;

    /** Cross-page slow paths for tryRead/tryWrite (out of line). */
    bool tryReadCross(uint64_t addr, int size, uint64_t &out) const;
    bool tryWriteCross(uint64_t addr, uint64_t value, int size);

    std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;

    // 2-entry MRU page cache (page number -> raw page pointer).
    mutable std::array<uint64_t, 2> cache_pn_{~0ull, ~0ull};
    mutable std::array<uint8_t *, 2> cache_page_{nullptr, nullptr};
    mutable uint32_t cache_mru_ = 0;
};

} // namespace epic

#endif // EPIC_SIM_MEMORY_H
