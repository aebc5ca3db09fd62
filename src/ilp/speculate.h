/**
 * @file
 * Control speculation (paper §3.2, §4.2, §4.3): the ILP-CS ingredient.
 *
 * Two transforms run inside formed regions:
 *
 *  1. Upward code motion: loads and pure ALU operations hoist above
 *     side-exit branches when their destination is dead on the exit
 *     path and no data dependence blocks the motion. Hoisted loads
 *     become control-speculative (ld.s) and may defer faults as NaT.
 *
 *  2. Predicate promotion: a guarded operation whose destination is
 *     consumed only under the same guard loses its guard, freeing it
 *     from the compare's dependence. Promoted loads execute on paths
 *     where their address may be garbage — the source of the paper's
 *     "wild loads" (§4.3) whose cost depends on the OS speculation
 *     model.
 */
#ifndef EPIC_ILP_SPECULATE_H
#define EPIC_ILP_SPECULATE_H

#include "ir/program.h"

namespace epic {

class AnalysisManager;

/** Speculation knobs. */
struct SpecOptions
{
    /// Maximum side-exit branches an instruction may hoist across.
    int max_cross_branches = 3;
    /// Data speculation (ilp/specmodel.h): maximum loads advanced to
    /// ld.a per block, bounding ALAT pressure.
    int max_advanced_per_block = 4;
};

/** Statistics. */
struct SpecStats
{
    int moved = 0;        ///< instructions hoisted above a branch
    int promoted = 0;     ///< guards weakened to always-true
    int spec_loads = 0;   ///< loads marked control-speculative
    int advanced = 0;     ///< loads converted to ld.a (data speculation)
    int checks = 0;       ///< chk.a checks inserted (== advanced today)

    SpecStats &
    operator+=(const SpecStats &o)
    {
        moved += o.moved;
        promoted += o.promoted;
        spec_loads += o.spec_loads;
        advanced += o.advanced;
        checks += o.checks;
        return *this;
    }
};

/** Apply control speculation to one function. */
SpecStats speculateFunction(Function &f, const SpecOptions &opts = {});

/**
 * Same, reading CFG/liveness through the manager. The pass works from
 * an entry snapshot by design (it never re-queries after mutating) and
 * preserves the block graph, so it declares kPreserveBlockGraph.
 */
SpecStats speculateFunction(Function &f, AnalysisManager &am,
                            const SpecOptions &opts = {});

} // namespace epic

#endif // EPIC_ILP_SPECULATE_H
