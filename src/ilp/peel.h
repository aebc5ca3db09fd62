/**
 * @file
 * Loop peeling and superblock-loop unrolling (paper §2.4, Figure 3).
 *
 * Peeling targets low-trip-count loops (the crafty Evaluate() pattern:
 * "each loop body typically executes exactly once"): one iteration is
 * pulled out as straight-line code on the dominant path, and the
 * original loop remains as a cold "remainder" that cleans up the rare
 * extra iterations. The peel copy can then merge with surrounding code
 * in a subsequent superblock pass — the Figure 3(c) effect. The
 * remainder is tagged kAttrRemainder, which the I-cache experiments use
 * to attribute misses (§4.1's "residual loops").
 *
 * Unrolling replicates hot higher-trip single-block loops to reduce
 * per-iteration branch overhead.
 */
#ifndef EPIC_ILP_PEEL_H
#define EPIC_ILP_PEEL_H

#include "ir/program.h"

namespace epic {

/** Peeling/unrolling knobs. */
struct PeelOptions
{
    /// Peel loops whose profiled average trip count is at most this.
    double max_avg_trip = 2.5;
    /// Minimum header weight to bother.
    double min_weight = 48.0;
    /// Peel at most this many instructions per loop.
    int max_body_instrs = 80;

    /// Unroll loops with at least this trip count.
    double unroll_min_trip = 7.0;
    int unroll_factor = 2;
    int unroll_max_body_instrs = 48;
};

/** Statistics. */
struct PeelStats
{
    int peeled = 0;
    int peel_instrs = 0;  ///< instructions added by peeling
    int unrolled = 0;
    int unroll_instrs = 0;

    PeelStats &
    operator+=(const PeelStats &o)
    {
        peeled += o.peeled;
        peel_instrs += o.peel_instrs;
        unrolled += o.unrolled;
        unroll_instrs += o.unroll_instrs;
        return *this;
    }
};

/** Peel and unroll eligible single-block loops in one function. */
PeelStats peelLoops(Function &f, const PeelOptions &opts = {});

} // namespace epic

#endif // EPIC_ILP_PEEL_H
