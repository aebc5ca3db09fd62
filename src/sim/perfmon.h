/**
 * @file
 * Performance-monitoring facility: the simulator's stand-in for the
 * Itanium 2 PMU + Perfmon/Pfmon stack the paper instruments with.
 *
 * Cycle accounting uses exactly the paper's Figure 5 taxonomy. The
 * "planned" cycles of Figure 2 are the statically-anticipable subset:
 * unstalled execution plus the fixed-latency scoreboard categories
 * (float scoreboard + MISC), matching footnote 4 of the paper.
 * Instruction-address attribution (per-function cycles, per-provenance
 * I-cache misses) reproduces the paper's sampling methodology (§4.5).
 */
#ifndef EPIC_SIM_PERFMON_H
#define EPIC_SIM_PERFMON_H

#include <array>
#include <cstdint>
#include <unordered_map>

namespace epic {

/** Cycle-accounting categories (paper Figure 5). */
enum class CycleCat : uint8_t {
    Unstalled,      ///< issue cycles (no stall)
    FloatScoreboard,///< waiting on fixed-latency FP-unit producers
    MiscScoreboard, ///< other scoreboard waits (int, misc)
    IntLoadBubble,  ///< waiting on loads beyond their planned latency
    Micropipe,      ///< memory-subsystem micropipeline stalls (STLF...)
    FrontEndBubble, ///< instruction fetch starvation (I-cache)
    BrMispredFlush, ///< branch misprediction flushes
    Rse,            ///< register stack engine spills/fills
    Kernel,         ///< OS time (wild-load page walks)
    AlatRecovery,   ///< chk.a misses: re-executed advanced loads
    NumCats,
};

inline const char *
cycleCatName(CycleCat c)
{
    switch (c) {
      case CycleCat::Unstalled: return "unstalled execution";
      case CycleCat::FloatScoreboard: return "float scoreboard";
      case CycleCat::MiscScoreboard: return "MISC";
      case CycleCat::IntLoadBubble: return "integer load bubble";
      case CycleCat::Micropipe: return "micropipe stall";
      case CycleCat::FrontEndBubble: return "front end bubble";
      case CycleCat::BrMispredFlush: return "br. mispr. flush";
      case CycleCat::Rse: return "register stack engine";
      case CycleCat::Kernel: return "kernel cycles";
      case CycleCat::AlatRecovery: return "ALAT recovery";
      default: return "?";
    }
}

/** All counters collected during one timing run. */
struct Perfmon
{
    static constexpr int kNumCats =
        static_cast<int>(CycleCat::NumCats);

    std::array<uint64_t, kNumCats> cycles{};

    void
    addCycles(CycleCat c, uint64_t n)
    {
        cycles[static_cast<int>(c)] += n;
    }
    uint64_t
    get(CycleCat c) const
    {
        return cycles[static_cast<int>(c)];
    }

    /** Total execution cycles. */
    uint64_t
    total() const
    {
        uint64_t t = 0;
        for (uint64_t c : cycles)
            t += c;
        return t;
    }

    /** Compiler-anticipable ("planned") cycles — paper footnote 4. */
    uint64_t
    planned() const
    {
        return get(CycleCat::Unstalled) + get(CycleCat::FloatScoreboard) +
               get(CycleCat::MiscScoreboard);
    }

    /** Total excluding only data-cache stall (paper §2.1: 1.21). */
    uint64_t
    totalExcludingDataCache() const
    {
        return total() - get(CycleCat::IntLoadBubble);
    }

    // ---- Operation accounting (paper Figure 6) ----
    uint64_t useful_ops = 0;   ///< guard-true, non-NOP
    uint64_t squashed_ops = 0; ///< guard-false (predicate-squashed)
    uint64_t nop_ops = 0;      ///< explicit NOPs retired
    uint64_t kernel_ops = 0;   ///< OS work (wild-load walks), op-equiv

    // ---- Branches (paper Figure 7) ----
    uint64_t branches = 0;        ///< executed control transfers
    uint64_t branch_predictions = 0;
    uint64_t mispredictions = 0;

    // ---- Memory hierarchy ----
    uint64_t loads = 0, stores = 0;
    uint64_t l1d_accesses = 0, l1d_misses = 0;
    uint64_t l1i_accesses = 0, l1i_misses = 0;
    uint64_t l2_accesses = 0, l2_misses = 0;
    uint64_t l2i_misses = 0; ///< instruction-side L2 misses
    uint64_t l3_accesses = 0, l3_misses = 0;
    uint64_t dtlb_misses = 0, vhpt_walks = 0;
    uint64_t wild_loads = 0, null_page_loads = 0;
    uint64_t stlf_conflicts = 0;

    // ---- ALAT (data speculation) ----
    // Invariant: AlatRecovery cycles == alat_misses * alat_recovery_cycles.
    uint64_t advanced_loads = 0; ///< ld.a executed (guard-true)
    uint64_t alat_hits = 0;      ///< chk.a found its entry intact
    uint64_t alat_misses = 0;    ///< chk.a recovered (entry lost/invalid)

    // ---- RSE (paper §4.4) ----
    uint64_t rse_spill_regs = 0, rse_fill_regs = 0;

    // ---- Provenance attribution of I-cache misses (paper §4.1) ----
    uint64_t l1i_miss_taildup = 0;
    uint64_t l1i_miss_peel_remainder = 0;
    uint64_t l2i_miss_taildup = 0;
    uint64_t l2i_miss_peel_remainder = 0;

    // ---- Instruction-address sampling (paper §4.5 / Figure 10) ----
    std::unordered_map<int, uint64_t> func_cycles; ///< func id -> cycles

    double
    usefulIpc() const
    {
        uint64_t t = total();
        return t ? static_cast<double>(useful_ops) / t : 0.0;
    }
    double
    plannedIpc() const
    {
        uint64_t p = planned();
        return p ? static_cast<double>(useful_ops) / p : 0.0;
    }
    double
    predictionRate() const
    {
        return branch_predictions
                   ? 1.0 - static_cast<double>(mispredictions) /
                               branch_predictions
                   : 0.0;
    }

    /** Every counter, func_cycles included. */
    bool operator==(const Perfmon &) const = default;
};

} // namespace epic

#endif // EPIC_SIM_PERFMON_H
