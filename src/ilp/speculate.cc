#include "ilp/speculate.h"

#include <algorithm>

#include "analysis/manager.h"
#include "support/logging.h"

namespace epic {

namespace {

/** Is this op eligible to execute speculatively (more often than the
 *  source program dictates)? */
bool
speculatable(const Instruction &inst)
{
    if (inst.info().has_side_effect || inst.isBranch())
        return false;
    if (inst.op == Opcode::DIV || inst.op == Opcode::REM ||
        inst.op == Opcode::FDIV) {
        return false; // potentially-excepting, never speculated
    }
    if (inst.dests.empty())
        return false;
    return true;
}

/**
 * May `inst` move from position `to+1..` upward to just before position
 * `to` in `b` (crossing instructions (to..from))? Pure data-dependence
 * legality; the control (branch-target liveness) check is the caller's.
 */
bool
dataDepsAllowHoist(const Function &f, const BasicBlock &b, int from,
                   int to)
{
    const Instruction &inst = b.instrs[from];
    std::vector<Reg> my_uses, my_defs, their_uses, their_defs;
    instrUses(inst, my_uses);
    instrDefs(inst, my_defs);
    for (int j = to; j < from; ++j) {
        const Instruction &other = b.instrs[j];
        instrUses(other, their_uses);
        instrDefs(other, their_defs);
        // RAW: other defines one of my sources.
        for (const Reg &d : their_defs)
            for (const Reg &u : my_uses)
                if (d == u)
                    return false;
        // WAR: other uses one of my dests.
        for (const Reg &u : their_uses)
            for (const Reg &d : my_defs)
                if (d == u)
                    return false;
        // WAW.
        for (const Reg &d1 : their_defs)
            for (const Reg &d2 : my_defs)
                if (d1 == d2)
                    return false;
        // Loads must not cross stores or calls (conservative: any).
        if (inst.isLoad() &&
            (other.isStore() || other.isCall()))
            return false;
    }
    (void)f;
    return true;
}

} // namespace

SpecStats
speculateFunction(Function &f, const SpecOptions &opts)
{
    AnalysisManager am(f);
    return speculateFunction(f, am, opts);
}

SpecStats
speculateFunction(Function &f, AnalysisManager &am, const SpecOptions &opts)
{
    SpecStats stats;
    // Entry snapshot by design: the transform judges every block against
    // liveness of the *unspeculated* function and never re-queries.
    const Cfg &cfg = am.cfg();
    const Liveness &live = am.liveness();

    for (auto &bp : f.blocks) {
        if (!bp || !cfg.reachable(bp->id))
            continue;
        BasicBlock &b = *bp;

        // ---- 1. Predicate promotion ----
        // A guarded def of d may lose its guard when, within its "span"
        // (from the def to the next def of d or the block end), every
        // use of d is guarded by the same predicate, the predicate is
        // not redefined inside the span, and — for the last span — d is
        // not live out of the block. Unrolled/duplicated regions carry
        // several guarded defs of one register; each span is judged
        // independently.
        int n = static_cast<int>(b.instrs.size());
        std::vector<Reg> defs, uses;
        for (int i = 0; i < n; ++i) {
            Instruction &inst = b.instrs[i];
            if (!inst.hasGuard() || !speculatable(inst))
                continue;
            if (inst.dests.size() != 1)
                continue; // compares keep their guards
            Reg g = inst.guard;
            Reg d = inst.dests[0];

            // Walk to the end of the block: every use of d must be
            // covered by its immediately-preceding def of d (same
            // guard register, not redefined in between) — within
            // this def's span that guard is g; beyond it, each
            // later def covers its own uses.
            bool ok = true;
            bool saw_next_def = false;
            Reg cover = g; // guard of the most recent def of d
            for (int j = i + 1; j < n && ok; ++j) {
                const Instruction &other = b.instrs[j];
                instrUses(other, uses);
                for (const Reg &u : uses)
                    if (u == d && other.guard != cover)
                        ok = false;
                instrDefs(other, defs);
                for (const Reg &od : defs) {
                    if (od == cover && od.cls == RegClass::Pr) {
                        // Covering guard changes value: uses after
                        // this are no longer provably covered.
                        cover = Reg(); // matches nothing
                    }
                    if (od == d) {
                        saw_next_def = true;
                        cover = other.guard;
                    }
                }
            }
            if (!ok)
                continue;
            // The value must die in this block: a live-out consumer
            // could observe the promoted (possibly junk) value when
            // every later guarded def squashes.
            (void)saw_next_def;
            if (live.liveOut(b.id).count(d))
                continue;
            // Uses of d *before* this def belong to earlier spans
            // and are untouched by promoting this def.
            inst.guard = kPrTrue;
            inst.attr |= kAttrPromoted;
            if (inst.isLoad()) {
                inst.spec = true;
                ++stats.spec_loads;
            }
            ++stats.promoted;
        }

        // ---- 2. Upward motion past side-exit branches ----
        bool moved = true;
        int guard_rounds = 0;
        while (moved && guard_rounds++ < 64) {
            moved = false;
            // Branch positions.
            std::vector<int> branch_pos;
            for (int i = 0; i < static_cast<int>(b.instrs.size()); ++i) {
                if (b.instrs[i].isBranch())
                    branch_pos.push_back(i);
            }
            for (int i = 0; i < static_cast<int>(b.instrs.size()); ++i) {
                const Instruction inst = b.instrs[i];
                if (!speculatable(inst) || inst.hasGuard())
                    continue;
                // Nearest preceding branch.
                int bpos = -1;
                int crossed = 0;
                for (int bp2 : branch_pos) {
                    if (bp2 < i)
                        bpos = bp2;
                }
                if (bpos < 0)
                    continue;
                // How many branches has this op already crossed in
                // this pass? Track via attr counter approximation:
                // limit total hoists by scanning preceding branches
                // it would sit above after this move.
                for (int bp2 : branch_pos)
                    if (bp2 >= bpos && bp2 < i)
                        ++crossed;
                if (crossed > opts.max_cross_branches)
                    continue;
                const Instruction &br = b.instrs[bpos];
                if (br.isRet() || br.isCall())
                    continue; // never hoist above calls/returns
                int target = br.target;
                if (target < 0 || !cfg.reachable(target))
                    continue;
                // Destination must be dead on the exit path.
                bool dest_live = false;
                for (const Reg &d : inst.dests)
                    if (live.liveIn(target).count(d))
                        dest_live = true;
                if (dest_live)
                    continue;
                if (!dataDepsAllowHoist(f, b, i, bpos))
                    continue;
                // Move: erase at i, insert before the branch.
                Instruction moving = b.instrs[i];
                moving.attr |= kAttrSpecMoved;
                if (moving.isLoad() && !moving.spec) {
                    moving.spec = true;
                    ++stats.spec_loads;
                }
                b.instrs.erase(b.instrs.begin() + i);
                b.instrs.insert(b.instrs.begin() + bpos, std::move(moving));
                ++stats.moved;
                moved = true;
                break;
            }
        }
    }
    return stats;
}

} // namespace epic
