/**
 * @file
 * Data-speculation (ILP-CS-DS) tests: golden timing counters for the
 * new rung, byte-level non-interference with the legacy ILP-CS rung,
 * firewall degradation IlpCsDs -> IlpCs, the manufactured-miss
 * recovery path (chk.a re-executes the access exactly once), and
 * architected-checksum invariance across ALAT geometries.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "driver/compiler.h"
#include "driver/experiment.h"
#include "driver/pipeline.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "support/faultinject.h"
#include "support/telemetry/artifact.h"
#include "workloads/workload.h"

namespace epic {
namespace {

/** Train input keeps the detailed sims fast (same policy as firewall). */
RunOptions
trainOpts()
{
    RunOptions opts;
    opts.run_input = InputKind::Train;
    return opts;
}

/** Count instructions with the given opcode across a whole program. */
int
countOp(const Program &prog, Opcode op)
{
    int n = 0;
    for (const auto &f : prog.funcs)
        for (const auto &bp : f->blocks) {
            if (!bp)
                continue;
            for (const Instruction &inst : bp->instrs)
                if (inst.op == op)
                    ++n;
        }
    return n;
}

/** Whole-program dump as a string (for byte-identity checks). */
std::string
programText(const Program &p)
{
    std::ostringstream os;
    printProgram(os, p);
    return os.str();
}

/**
 * Golden counters for the rung ladder on the two headline workloads.
 * 254.gap carries the opportunity (hint-less kernel-1 loads pinned by
 * a may-aliasing store); 181.mcf is precisely hinted, so ILP-CS-DS
 * must reproduce ILP-CS exactly — the model keys on the alias oracle,
 * not on load opcodes.
 */
TEST(DataSpecTest, GoldenCountersGapAndMcf)
{
    const Workload *gap = findWorkload("254.gap");
    ASSERT_NE(gap, nullptr);
    WorkloadRuns gr =
        runWorkload(*gap, {Config::IlpCs, Config::IlpCsDs}, trainOpts());
    ASSERT_TRUE(gr.error.empty()) << gr.error;
    EXPECT_TRUE(gr.all_match);

    const ConfigRun &gcs = gr.by_config.at(Config::IlpCs);
    const ConfigRun &gds = gr.by_config.at(Config::IlpCsDs);
    ASSERT_TRUE(gcs.ok && gds.ok);

    // Pinned golden counters (train input, default machine).
    EXPECT_EQ(gcs.pm.total(), 2516294u);
    EXPECT_EQ(gds.pm.total(), 2442830u);
    EXPECT_LT(gds.pm.total(), gcs.pm.total())
        << "data speculation must buy cycles on gap";

    // Compile side: two kernel-1 loads advanced, one check each.
    EXPECT_EQ(gds.stats.spec.advanced, 2);
    EXPECT_EQ(gds.stats.spec.checks, 2);
    EXPECT_EQ(gcs.stats.spec.advanced, 0);

    // Sim side: every dynamic check hits (no truly-aliasing store in
    // gap kernel 1), so recovery stays zero.
    EXPECT_EQ(gds.pm.advanced_loads, 147456u);
    EXPECT_EQ(gds.pm.alat_hits, 147456u);
    EXPECT_EQ(gds.pm.alat_misses, 0u);
    EXPECT_EQ(gds.pm.cycles[static_cast<int>(CycleCat::AlatRecovery)], 0u);
    EXPECT_EQ(gcs.pm.advanced_loads, 0u);

    const Workload *mcf = findWorkload("181.mcf");
    ASSERT_NE(mcf, nullptr);
    WorkloadRuns mr =
        runWorkload(*mcf, {Config::IlpCs, Config::IlpCsDs}, trainOpts());
    ASSERT_TRUE(mr.error.empty()) << mr.error;
    EXPECT_TRUE(mr.all_match);

    const ConfigRun &mcs = mr.by_config.at(Config::IlpCs);
    const ConfigRun &mds = mr.by_config.at(Config::IlpCsDs);
    ASSERT_TRUE(mcs.ok && mds.ok);
    EXPECT_EQ(mds.stats.spec.advanced, 0);
    EXPECT_EQ(mds.pm.advanced_loads, 0u);
    EXPECT_EQ(mds.pm.total(), mcs.pm.total());
    EXPECT_TRUE(mds.pm == mcs.pm)
        << "a no-candidate function must compile and time identically";
}

/**
 * The refactor contract: pulling control speculation behind the
 * SpeculationModel registry must leave the legacy ILP-CS rung
 * byte-identical — no advanced opcodes in its output, ALAT and
 * advanced-load keys present but zero in its artifact record, and
 * deterministic recompilation.
 */
TEST(DataSpecTest, ControlSpecRungUntouchedByDataSpecModel)
{
    const Workload *w = findWorkload("254.gap");
    ASSERT_NE(w, nullptr);

    WorkloadRuns runs = runWorkload(*w, {Config::IlpCs}, trainOpts());
    const ConfigRun &r = runs.by_config.at(Config::IlpCs);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_NE(r.prog, nullptr);

    EXPECT_EQ(countOp(*r.prog, Opcode::LD_A), 0);
    EXPECT_EQ(countOp(*r.prog, Opcode::CHK_A), 0);
    EXPECT_EQ(r.stats.spec.advanced, 0);
    EXPECT_EQ(r.stats.spec.checks, 0);

    // The record carries the new rung's keys, all quiet.
    const StatsRegistry reg = buildRunRegistry(r);
    for (const char *key :
         {"sim.alat.advanced_loads", "sim.alat.hits", "sim.alat.misses",
          "sim.cycles.alat_recovery", "compile.spec.advanced",
          "compile.spec.checks"}) {
        EXPECT_TRUE(reg.has(key)) << key;
        EXPECT_EQ(reg.getInt(key), 0) << key;
    }

    // Same source, same rung -> byte-identical program text.
    WorkloadRuns again = runWorkload(*w, {Config::IlpCs}, trainOpts());
    const ConfigRun &r2 = again.by_config.at(Config::IlpCs);
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(programText(*r.prog), programText(*r2.prog));
}

/** A fault only the dataspec pass can hit degrades exactly one rung. */
TEST(DataSpecTest, DataSpecFaultLandsOneRungDown)
{
    const Workload *w = findWorkload("254.gap");
    ASSERT_NE(w, nullptr);

    FaultInjector inj(11, 1.0);
    inj.restrictTo("", "dataspec");
    RunOptions opts = trainOpts();
    opts.tweak = [&inj](CompileOptions &o) { o.firewall.inject = &inj; };
    WorkloadRuns runs = runWorkload(*w, {Config::IlpCsDs}, opts);

    EXPECT_TRUE(runs.all_match);
    EXPECT_GT(inj.fired(), 0);
    EXPECT_EQ(inj.escaped(), 0);
    EXPECT_GT(runs.fallback.functions_degraded, 0);
    for (const FallbackEvent &ev : runs.fallback.events) {
        EXPECT_EQ(ev.attempted, Config::IlpCsDs) << ev.str();
        EXPECT_EQ(ev.failing_pass, "dataspec") << ev.str();
        EXPECT_EQ(ev.final_config, Config::IlpCs) << ev.str();
    }
}

/**
 * The recovery path, manufactured: a loop that stores to the very
 * address it then loads. Dataspec advances the load (the store may
 * alias — here it *does* alias), the scheduler hoists the ld.a above
 * the store, the store invalidates the ALAT entry, and every chk.a
 * misses. Recovery must re-execute the access exactly once: the
 * architected result matches the functional interpreter, and the
 * recovery-cycle invariant holds.
 */
TEST(DataSpecTest, AlatMissRecoveryExecutesDependentsOnce)
{
    Program p;
    int cell = p.addSymbol("cell", 8);
    IRBuilder b(p);
    Function *f = b.beginFunction("main", 0);
    p.entry_func = f->id;
    BasicBlock *loop = b.newBlock();
    BasicBlock *done = b.newBlock();

    Reg i = b.gr(), acc = b.gr();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    Reg base = b.mova(cell);
    b.fallthrough(loop);

    b.setBlock(loop);
    Reg x = b.addi(i, 3);
    b.st(base, x);                  // truly aliases the load below
    Reg y = b.ld(base);             // hint-less: may-alias -> advanced
    Reg sum = b.add(acc, y);        // the dependent: must see x once
    b.movTo(acc, sum);
    b.addiTo(i, i, 1);
    auto [lt, ge] = b.cmpi(CmpCond::LT, i, 100);
    (void)ge;
    b.br(lt, loop);
    b.fallthrough(done);

    b.setBlock(done);
    b.ret(acc);

    p.layoutData();
    int64_t golden;
    {
        Memory mem;
        mem.initFromProgram(p);
        InterpResult ir = interpret(p, mem);
        ASSERT_TRUE(ir.ok) << ir.error;
        golden = ir.ret_value; // sum of 3..102 = 5250
        EXPECT_EQ(golden, 5250);
    }
    {
        Memory mem;
        mem.initFromProgram(p);
        ASSERT_TRUE(profileRun(p, mem).ok);
    }

    Compiled c = compileProgram(p, Config::IlpCsDs);
    ASSERT_TRUE(c.fallback.clean()) << c.fallback.str();
    ASSERT_GT(countOp(*c.prog, Opcode::LD_A), 0)
        << "dataspec did not fire on the aliasing load";
    ASSERT_EQ(countOp(*c.prog, Opcode::LD_A),
              countOp(*c.prog, Opcode::CHK_A));

    Memory mem;
    mem.initFromProgram(*c.prog);
    MachineConfig mach;
    TimingOptions topts;
    topts.mach = mach;
    TimingResult tr = simulate(*c.prog, mem, topts);
    ASSERT_TRUE(tr.ok) << tr.error;

    // Exactly-once dependents: the architected sum is unchanged.
    EXPECT_EQ(tr.ret_value, golden);

    // The store really invalidates: the checks miss, and recovery
    // cycles obey the invariant to the cycle.
    EXPECT_GT(tr.pm.alat_misses, 0u);
    EXPECT_EQ(tr.pm.advanced_loads, tr.pm.alat_hits + tr.pm.alat_misses);
    EXPECT_EQ(tr.pm.cycles[static_cast<int>(CycleCat::AlatRecovery)],
              tr.pm.alat_misses *
                  static_cast<uint64_t>(mach.alat_recovery_cycles));
}

/**
 * ALAT geometry is a performance knob, never a correctness knob: any
 * entries/associativity combination reproduces the architected
 * checksum, only hit/miss mix may move. Every dynamic check resolves
 * to exactly one of hit or miss under every geometry.
 */
TEST(DataSpecTest, ChecksumInvariantAcrossAlatGeometries)
{
    const Workload *w = findWorkload("254.gap");
    ASSERT_NE(w, nullptr);

    struct Geo {
        int entries, assoc;
    };
    const Geo geos[] = {{32, 2}, {1, 1}, {4, 0}}; // 0 = fully assoc
    int64_t checksum = 0;
    uint64_t advanced = 0;
    for (const Geo &g : geos) {
        RunOptions opts = trainOpts();
        opts.alat_entries = g.entries;
        opts.alat_assoc = g.assoc;
        ConfigRun r = runWorkload(*w, {Config::IlpCsDs}, opts)
                          .by_config.at(Config::IlpCsDs);
        ASSERT_TRUE(r.ok) << r.error;
        if (checksum == 0) {
            checksum = r.checksum;
            advanced = r.pm.advanced_loads;
        }
        EXPECT_EQ(r.checksum, checksum)
            << g.entries << "/" << g.assoc;
        EXPECT_EQ(r.pm.advanced_loads, advanced)
            << "geometry must not change the compiled program";
        EXPECT_EQ(r.pm.alat_hits + r.pm.alat_misses, advanced);
        EXPECT_EQ(r.pm.cycles[static_cast<int>(CycleCat::AlatRecovery)],
                  r.pm.alat_misses * 10u);
    }
}

} // namespace
} // namespace epic
