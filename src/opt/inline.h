/**
 * @file
 * Profile-guided procedure inlining and indirect-call promotion
 * (paper §3.1).
 *
 * Inlining expands callsites in priority order, priority =
 * exec_weight / sqrt(callee_size), until the program's touched code has
 * grown by the budget factor (the paper's empirically-chosen 1.6).
 * Indirect-call promotion inserts a token compare plus a predicated
 * direct call to the profile-dominant callee, exposing it to the
 * inliner — the mechanism the paper credits for eon and gap.
 */
#ifndef EPIC_OPT_INLINE_H
#define EPIC_OPT_INLINE_H

#include "ir/program.h"

namespace epic {

/** Inlining configuration. */
struct InlineOptions
{
    /// Stop when static code has grown by this factor (paper: 1.6).
    double growth_budget = 1.6;
    /// Callsites executed fewer times than this are never inlined.
    double min_weight = 16.0;
    /// Callees larger than this (static instructions) are never inlined.
    int max_callee_size = 500;
    /// Promote indirect calls whose top callee has at least this share.
    double promote_threshold = 0.70;
};

/** Results for diagnostics/tests. */
struct InlineStats
{
    int inlined = 0;
    int promoted = 0;
    int before_instrs = 0;
    int after_instrs = 0;

    InlineStats &
    operator+=(const InlineStats &o)
    {
        inlined += o.inlined;
        promoted += o.promoted;
        before_instrs += o.before_instrs;
        after_instrs += o.after_instrs;
        return *this;
    }
};

/**
 * Promote biased indirect callsites to guarded direct calls.
 * Requires profile annotations (prof_callees).
 */
int promoteIndirectCalls(Program &prog, double threshold,
                         double min_weight);

/**
 * Inline one specific callsite (block `bid`, instruction `idx`, which
 * must be a direct call). Exposed for unit testing and reused by the
 * driver. Returns false if the callsite is not inlinable.
 */
bool inlineCallsite(Program &prog, Function &caller, int bid, int idx);

/** Run promotion + priority-ordered inlining under the budget. */
InlineStats inlineProgram(Program &prog, const InlineOptions &opts = {});

} // namespace epic

#endif // EPIC_OPT_INLINE_H
