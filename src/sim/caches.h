/**
 * @file
 * Set-associative LRU cache and the Itanium-2-like three-level
 * hierarchy (16K L1I + 16K L1D, unified 256K L2, unified 3M L3).
 * Floating-point loads bypass L1D (as on the real machine).
 */
#ifndef EPIC_SIM_CACHES_H
#define EPIC_SIM_CACHES_H

#include <cstdint>
#include <vector>

#include "mach/machine.h"

namespace epic {

/** One set-associative LRU cache level. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access a line; allocates on miss.
     * @return true on hit.
     * Header-inline (with an out-of-line miss path): runs once per
     * simulated memory access per level.
     */
    bool
    access(uint64_t addr)
    {
        ++accesses_;
        ++tick_;
        uint64_t line, tag;
        int set;
        splitAddr(addr, line, set, tag);
        Way *base = &ways_[static_cast<size_t>(set) * cfg_.assoc];
        for (int w = 0; w < cfg_.assoc; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lru = tick_;
                return true;
            }
        }
        missFill(base, tag);
        return false;
    }

    /** Probe without state change. */
    bool contains(uint64_t addr) const;

    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    int latency() const { return cfg_.latency; }
    const CacheConfig &config() const { return cfg_; }

  private:
    struct Way
    {
        uint64_t tag = ~0ull;
        uint64_t lru = 0;
        bool valid = false;
    };

    /** Victim selection + allocation on a miss (out of line). */
    void missFill(Way *base, uint64_t tag);

    /**
     * addr -> (line, set, tag). Both line_bytes and num_sets are
     * powers of two for every Itanium-2-like geometry, so the hot
     * path is two shifts and a mask; the divide fallback keeps exotic
     * configs correct.
     */
    void
    splitAddr(uint64_t addr, uint64_t &line, int &set,
              uint64_t &tag) const
    {
        if (pow2_) {
            line = addr >> line_shift_;
            set = static_cast<int>(line & set_mask_);
            tag = line >> set_shift_;
        } else {
            line = addr / cfg_.line_bytes;
            set = static_cast<int>(line % num_sets_);
            tag = line / num_sets_;
        }
    }

    CacheConfig cfg_;
    int num_sets_;
    bool pow2_ = false;
    uint32_t line_shift_ = 0; ///< log2(line_bytes) when pow2_
    uint32_t set_shift_ = 0;  ///< log2(num_sets) when pow2_
    uint64_t set_mask_ = 0;   ///< num_sets - 1 when pow2_
    std::vector<Way> ways_; ///< num_sets x assoc
    uint64_t tick_ = 0;
    uint64_t accesses_ = 0, misses_ = 0;
};

/** Result of a memory-hierarchy access. */
struct MemAccessResult
{
    int latency = 0;    ///< load-use latency in cycles
    bool l1_hit = false;
    bool l2_hit = false;
    bool l3_hit = false;
};

/** The full data/instruction hierarchy. Accessors are header-inline:
 *  they run once per simulated load/store/group and the common hit
 *  path is a single inlined Cache::access. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MachineConfig &mach);

    /** Integer/FP data load (fp loads bypass L1D). */
    MemAccessResult
    load(uint64_t addr, bool fp)
    {
        MemAccessResult r;
        if (!fp && l1d_.access(addr)) {
            r.l1_hit = true;
            r.latency = mach_.l1d.latency;
            return r;
        }
        if (l2_.access(addr)) {
            r.l2_hit = true;
            r.latency = mach_.l2.latency + (fp ? 1 : 0);
            return r;
        }
        if (l3_.access(addr)) {
            r.l3_hit = true;
            r.latency = mach_.l3.latency;
            return r;
        }
        r.latency = mach_.mem_latency;
        return r;
    }

    /** Data store (write-through, no L1 allocate; allocates in L2). */
    void
    store(uint64_t addr)
    {
        // Write-through L1D: update L1 if present (access() allocates,
        // so use contains() + access only on hit), always send to L2.
        if (l1d_.contains(addr))
            l1d_.access(addr);
        l2_.access(addr);
    }

    /** Instruction fetch of one 64-byte line. */
    MemAccessResult
    fetch(uint64_t addr)
    {
        MemAccessResult r;
        if (l1i_.access(addr)) {
            r.l1_hit = true;
            r.latency = mach_.l1i.latency;
            return r;
        }
        if (l2_.access(addr)) {
            r.l2_hit = true;
            r.latency = mach_.l2.latency;
            return r;
        }
        if (l3_.access(addr)) {
            r.l3_hit = true;
            r.latency = mach_.l3.latency;
            return r;
        }
        r.latency = mach_.mem_latency;
        return r;
    }

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }

  private:
    MachineConfig mach_;
    Cache l1i_, l1d_, l2_, l3_;
};

} // namespace epic

#endif // EPIC_SIM_CACHES_H
