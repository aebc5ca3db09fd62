/**
 * @file
 * Fused issue-group kernel tests (DESIGN.md §18). The kernel-shape
 * classification is a legality statement: every specialized kernel must
 * be observationally identical to the generic fallback on the groups
 * its shape admits — fusion changes dispatch, never accounting. These
 * tests pin that contract with full golden-counter parity across
 * workloads and configs, verify supervision trip points land on the
 * same group boundary either way, and check the malformed-descriptor
 * panic plus the sampled-mode smoke behavior.
 */
#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <string>

#include "driver/compiler.h"
#include "sim/checkpoint.h"
#include "sim/decode.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "support/supervision/supervise.h"
#include "workloads/workload.h"

namespace epic {
namespace {

/** Serialize a Perfmon: blob equality is full-counter equality. */
std::string
pmBlob(const Perfmon &pm)
{
    CkptWriter w;
    saveState(w, pm);
    return w.take();
}

/** Profile + compile one workload once (tests run two sims per build). */
Compiled
buildCompiled(const Workload &w, Config cfg)
{
    auto prog = w.build();
    prog->layoutData();
    {
        Memory mem;
        mem.initFromProgram(*prog);
        w.write_input(*prog, mem, InputKind::Train);
        EXPECT_TRUE(profileRun(*prog, mem).ok);
    }
    return compileProgram(*prog, cfg);
}

TimingResult
runSim(const Workload &w, Compiled &c, const TimingOptions &topts)
{
    Memory mem;
    mem.initFromProgram(*c.prog);
    w.write_input(*c.prog, mem, InputKind::Train);
    return simulate(*c.prog, mem, topts);
}

// ---------------------------------------------------------------------
// Golden-counter parity: specialized kernels vs generic fallback, per
// (workload, config). Parameterized so a failure names the pair.

struct WorkloadConfig
{
    const char *workload;
    Config config;
};

/** Print by name: the default byte dump embeds a pointer, so the test
 *  names listed for ctest would change from run to run. */
void
PrintTo(const WorkloadConfig &p, std::ostream *os)
{
    *os << p.workload << ' ' << configName(p.config);
}

class FusedKernelParityTest
    : public ::testing::TestWithParam<WorkloadConfig>
{
};

TEST_P(FusedKernelParityTest, SpecializedMatchesGenericExactly)
{
    const auto &[wname, cfg] = GetParam();
    const Workload *w = findWorkload(wname);
    ASSERT_NE(w, nullptr);
    Compiled c = buildCompiled(*w, cfg);

    TimingOptions fused;
    TimingOptions generic;
    generic.force_generic_kernels = true;
    TimingResult rf = runSim(*w, c, fused);
    TimingResult rg = runSim(*w, c, generic);
    ASSERT_TRUE(rf.ok) << rf.error;
    ASSERT_TRUE(rg.ok) << rg.error;

    // Same architected result and byte-identical Perfmon — every cycle
    // category, counter and histogram, not a spot check.
    EXPECT_EQ(rf.ret_value, rg.ret_value);
    EXPECT_EQ(pmBlob(rf.pm), pmBlob(rg.pm));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedKernelParityTest,
    ::testing::Values(WorkloadConfig{"164.gzip", Config::ONS},
                      WorkloadConfig{"164.gzip", Config::IlpCs},
                      WorkloadConfig{"181.mcf", Config::ONS},
                      WorkloadConfig{"181.mcf", Config::IlpCs}),
    [](const ::testing::TestParamInfo<WorkloadConfig> &info) {
        std::string n = info.param.workload;
        for (char &ch : n)
            if (ch == '.')
                ch = '_';
        return n + (info.param.config == Config::ONS ? "_ONS"
                                                     : "_IlpCs");
    });

// ---------------------------------------------------------------------
// The parity above only means something if the specialized shapes
// actually occur: assert the classifier finds every shape in real
// scheduled code, so no kernel is dead (and silently untested).

TEST(FusedKernelTest, AllShapesOccurInCompiledWorkloads)
{
    std::array<uint64_t, kNumKernelShapes> seen{};
    for (const char *wname : {"164.gzip", "181.mcf"}) {
        const Workload *w = findWorkload(wname);
        ASSERT_NE(w, nullptr);
        Compiled c = buildCompiled(*w, Config::IlpCs);
        DecodedProgram d = DecodedProgram::forTiming(*c.prog);
        for (size_t fid = 0; fid < c.prog->funcs.size(); ++fid) {
            const Function *f = c.prog->funcs[fid].get();
            if (!f)
                continue;
            const DecodedFunction &df = d.func(static_cast<int>(fid));
            for (size_t bid = 0; bid < f->blocks.size(); ++bid) {
                if (!f->blocks[bid])
                    continue;
                const DecodedBlock &db =
                    df.block(static_cast<int>(bid));
                for (uint32_t g = 0; g < db.ngroups; ++g) {
                    ASSERT_LT(db.groups[g].kernel, kNumKernelShapes);
                    ++seen[db.groups[g].kernel];
                }
            }
        }
    }
    EXPECT_GT(seen[kKernelGeneric], 0u);
    EXPECT_GT(seen[kKernelAllAlu], 0u);
    EXPECT_GT(seen[kKernelLoadAlu], 0u);
    EXPECT_GT(seen[kKernelBranchTerm], 0u);
}

// ---------------------------------------------------------------------
// Supervision trip points: the fused kernels hoist the budget/watchdog
// checks to group boundaries, which is where the generic path polls
// them too — a budget must therefore trip at the *same* boundary with
// the same Perfmon state, or fusion changed supervision semantics.

TEST(FusedKernelTest, CycleBudgetTripsAtSameGroupBoundary)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    Compiled c = buildCompiled(*w, Config::IlpCs);

    uint64_t full_cycles = 0;
    {
        TimingResult r = runSim(*w, c, {});
        ASSERT_TRUE(r.ok) << r.error;
        full_cycles = r.pm.total();
        ASSERT_GT(full_cycles, 1000u);
    }

    TimingOptions fused;
    fused.max_cycles = full_cycles / 2;
    TimingOptions generic = fused;
    generic.force_generic_kernels = true;
    TimingResult rf = runSim(*w, c, fused);
    TimingResult rg = runSim(*w, c, generic);
    ASSERT_FALSE(rf.ok);
    ASSERT_FALSE(rg.ok);
    EXPECT_EQ(rf.status, RunStatus::BudgetExceeded);
    EXPECT_EQ(rf.error, rg.error);
    EXPECT_EQ(pmBlob(rf.pm), pmBlob(rg.pm));
}

TEST(FusedKernelTest, ExpiredDeadlineTripsIdentically)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    Compiled c = buildCompiled(*w, Config::IlpCs);

    // A deadline already in the past fires at the first armed watchdog
    // poll — a fixed group boundary, so the state at the trip is
    // deterministic and must match between dispatch paths. The poll
    // only runs while process-level supervision is armed (the fleet
    // engine's normal state; supervise.h).
    TimingOptions fused;
    fused.deadline_ns = 1;
    TimingOptions generic = fused;
    generic.force_generic_kernels = true;
    armSupervision();
    TimingResult rf = runSim(*w, c, fused);
    TimingResult rg = runSim(*w, c, generic);
    disarmSupervision();
    ASSERT_FALSE(rf.ok);
    ASSERT_FALSE(rg.ok);
    EXPECT_EQ(rf.status, RunStatus::Deadline);
    EXPECT_EQ(rg.status, RunStatus::Deadline);
    EXPECT_EQ(pmBlob(rf.pm), pmBlob(rg.pm));
}

// ---------------------------------------------------------------------
// Sampled mode rides the same kernels: the architected result must be
// exact (only cycle attribution is extrapolated), and the estimate must
// cross-foot.

TEST(FusedKernelTest, SampledModePreservesArchitectedResult)
{
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    Compiled c = buildCompiled(*w, Config::IlpCs);

    TimingResult det = runSim(*w, c, {});
    ASSERT_TRUE(det.ok) << det.error;

    TimingOptions sopts;
    sopts.sim_mode = SimMode::Sampled;
    sopts.ff_functional = 100'000;
    sopts.detail_window = 50'000;
    TimingResult smp = runSim(*w, c, sopts);
    ASSERT_TRUE(smp.ok) << smp.error;

    EXPECT_EQ(smp.ret_value, det.ret_value);
    ASSERT_TRUE(smp.sampled.enabled);
    EXPECT_GE(smp.sampled.windows, 1u);
    EXPECT_GT(smp.sampled.detail_ops, 0u);
    EXPECT_LE(smp.sampled.detail_ops, smp.sampled.total_ops);
    EXPECT_LE(smp.sampled.head_ops, smp.sampled.detail_ops);
    uint64_t sum = 0;
    for (uint64_t v : smp.sampled.est_cycles)
        sum += v;
    EXPECT_EQ(sum, smp.sampled.est_total);
    // Sampling skipped detailed work: window-only cycles are a strict
    // subset of the detailed run's.
    EXPECT_LT(smp.pm.total(), det.pm.total());
    // Detailed runs carry no sampled stats.
    EXPECT_FALSE(det.sampled.enabled);
}

// ---------------------------------------------------------------------
// Failure discipline: a corrupted kernel descriptor must abort before
// dispatch, never run a wrong kernel.

TEST(FusedKernelDeathTest, MalformedKernelDescriptorPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const Workload *w = findWorkload("164.gzip");
    ASSERT_NE(w, nullptr);
    Compiled c = buildCompiled(*w, Config::IlpCs);
    TimingOptions topts;
    topts.corrupt_kernel_desc = true;
    EXPECT_DEATH(
        {
            Memory mem;
            mem.initFromProgram(*c.prog);
            w->write_input(*c.prog, mem, InputKind::Train);
            simulate(*c.prog, mem, topts);
        },
        "malformed kernel descriptor");
}

} // namespace
} // namespace epic
