/**
 * @file
 * Advanced Load Address Table (ALAT): the hardware half of IA-64 data
 * speculation (ld.a / chk.a, DESIGN.md §19).
 *
 * An ld.a allocates an entry keyed by its destination register and
 * tagged with the accessed address; a committing store invalidates
 * every overlapping entry; a chk.a hits when its register's entry is
 * still intact and otherwise triggers recovery (the timing simulator
 * charges CycleCat::AlatRecovery).
 *
 * Timing-only state by construction: chk.a's architected semantics are
 * an idempotent reload of the same address into the same destination,
 * so ALAT contents influence cycle accounting, never architected
 * results — checksums are identical across every ALAT geometry.
 *
 * Set-associative on the destination register id (alat_assoc <= 0
 * selects fully-associative), round-robin victim per set: replacement
 * is deterministic, so ALAT hits and recoveries are a pure function of
 * the executed op stream.
 */
#ifndef EPIC_SIM_ALAT_H
#define EPIC_SIM_ALAT_H

#include <algorithm>
#include <cstdint>
#include <vector>


namespace epic {

class Alat
{
  public:
    Alat(int entries, int assoc)
    {
        entries = std::max(1, entries);
        if (assoc <= 0 || assoc > entries)
            assoc = entries; // fully associative
        assoc_ = assoc;
        nsets_ = std::max(1, entries / assoc);
        slots_.assign(static_cast<size_t>(nsets_) * assoc_, Entry{});
        rr_.assign(static_cast<size_t>(nsets_), 0);
    }

    /** ld.a executed: (re-)allocate the entry for its destination. */
    void
    allocate(int32_t reg_id, uint64_t addr, uint8_t size)
    {
        Entry *set = setOf(reg_id);
        for (int i = 0; i < assoc_; ++i) {
            if (set[i].valid && set[i].reg == reg_id) {
                set[i] = Entry{addr, reg_id, size, true};
                return;
            }
        }
        for (int i = 0; i < assoc_; ++i) {
            if (!set[i].valid) {
                set[i] = Entry{addr, reg_id, size, true};
                return;
            }
        }
        uint32_t &rr = rr_[static_cast<size_t>(setIndex(reg_id))];
        set[rr] = Entry{addr, reg_id, size, true};
        rr = (rr + 1) % static_cast<uint32_t>(assoc_);
    }

    /** chk.a: is the register's entry still intact for this access? */
    bool
    check(int32_t reg_id, uint64_t addr, uint8_t size) const
    {
        const Entry *set = setOf(reg_id);
        for (int i = 0; i < assoc_; ++i) {
            const Entry &e = set[i];
            if (e.valid && e.reg == reg_id && e.addr == addr &&
                e.size == size)
                return true;
        }
        return false;
    }

    /** Committing store: drop every overlapping entry. */
    void
    invalidate(uint64_t addr, uint8_t size)
    {
        const uint64_t hi = addr + size;
        for (Entry &e : slots_)
            if (e.valid && e.addr < hi && addr < e.addr + e.size)
                e.valid = false;
    }

    /** Calls and returns flush the table (conservative IA-64 subset:
     *  the register-stack rename would remap every tag anyway). */
    void
    flushAll()
    {
        for (Entry &e : slots_)
            e.valid = false;
    }

    /** Chaos injection (SimAlatCorrupt): flip one valid entry's tag so
     *  its chk.a must recover. A no-op when the table is empty. */
    void
    corruptOne()
    {
        for (Entry &e : slots_) {
            if (e.valid) {
                e.addr ^= 0x40;
                return;
            }
        }
    }

  private:
    struct Entry
    {
        uint64_t addr = 0;
        int32_t reg = -1;
        uint8_t size = 0;
        bool valid = false;
    };

    int
    setIndex(int32_t reg_id) const
    {
        return static_cast<int>(static_cast<uint32_t>(reg_id) %
                                static_cast<uint32_t>(nsets_));
    }
    Entry *setOf(int32_t reg_id)
    {
        return slots_.data() +
               static_cast<size_t>(setIndex(reg_id)) * assoc_;
    }
    const Entry *
    setOf(int32_t reg_id) const
    {
        return slots_.data() +
               static_cast<size_t>(setIndex(reg_id)) * assoc_;
    }

    int assoc_ = 1;
    int nsets_ = 1;
    std::vector<Entry> slots_;
    std::vector<uint32_t> rr_; ///< per-set round-robin victim cursor
};

} // namespace epic

#endif // EPIC_SIM_ALAT_H
