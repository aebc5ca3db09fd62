/**
 * @file
 * Fleet schedule tests: a run plan profiles each workload once per
 * profile input and compiles every configuration from that one profiled
 * program, runs one source run per workload and run input, and runs all
 * (variant x workload x config) tasks as one flat schedule. Records
 * must equal those of one-configuration runWorkload calls (each builds
 * and profiles its own source) and of one runSuite call per variant,
 * and records plus the warning stream must not depend on the jobs
 * value.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "driver/experiment.h"
#include "ir/builder.h"
#include "support/faultinject.h"
#include "support/logging.h"
#include "support/telemetry/artifact.h"
#include "support/telemetry/trace.h"
#include "workloads/workload.h"

namespace epic {
namespace {

TEST(FleetScheduleTest, ProfileOnceMatchesPerConfigRuns)
{
    for (const char *name : {"164.gzip", "181.mcf", "186.crafty"}) {
        const Workload *w = findWorkload(name);
        ASSERT_NE(w, nullptr) << name;
        const WorkloadRuns runs = runWorkload(*w, standardConfigs());
        ASSERT_TRUE(runs.all_match) << name;
        for (Config cfg : standardConfigs()) {
            const ConfigRun own =
                runWorkload(*w, {cfg}).by_config.at(cfg);
            const ConfigRun &shared = runs.by_config.at(cfg);
            EXPECT_EQ(buildRunRegistry(shared).jsonObject(),
                      buildRunRegistry(own).jsonObject())
                << name << " [" << configName(cfg) << "]";
            EXPECT_EQ(runRecordJson(w->name, runs.source_checksum, shared),
                      runRecordJson(w->name, runs.source_checksum, own))
                << name << " [" << configName(cfg) << "]";
        }
    }
}

/** runSuite's records and stderr under compile faults and sim budgets. */
std::pair<std::string, std::string>
faultedSuite(int jobs)
{
    FaultInjector inj(/*seed=*/42, /*rate=*/0.5);
    RunOptions opts;
    opts.jobs = jobs;
    opts.only = {"gzip", "mcf", "crafty"};
    opts.tweak = [&inj](CompileOptions &o) { o.firewall.inject = &inj; };
    // A cycle budget some (workload x config) runs exceed, with no
    // degradation ladder: those fail, and each failure is a warning.
    opts.supervise = true;
    opts.supervision.max_cycles = 1'200'000;
    opts.supervision.ladder = false;
    testing::internal::CaptureStderr();
    const std::vector<WorkloadRuns> suite = runSuite(standardConfigs(), opts);
    std::string warnings = testing::internal::GetCapturedStderr();
    EXPECT_GT(inj.fired(), 0);
    EXPECT_EQ(inj.escaped(), 0);
    return {suiteArtifact(suite, standardConfigs(), nullptr),
            std::move(warnings)};
}

TEST(FleetScheduleTest, SuiteIsJobsInvariantUnderFaults)
{
    const auto [records1, warnings1] = faultedSuite(1);
    const auto [records4, warnings4] = faultedSuite(4);
    EXPECT_EQ(records1, records4);
    EXPECT_EQ(warnings1, warnings4);

    // Warnings come from more than one workload, in suite order.
    std::istringstream lines(warnings4);
    std::vector<int> order;
    const std::vector<std::string> names = {"164.gzip", "181.mcf",
                                            "186.crafty"};
    for (std::string line; std::getline(lines, line);)
        for (int i = 0; i < 3; ++i)
            if (line.find(names[i]) != std::string::npos)
                order.push_back(i);
    ASSERT_FALSE(order.empty());
    EXPECT_NE(order.front(), order.back());
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end())) << warnings4;
}

/**
 * Four of epiclab_report's variants on gzip and mcf: standard (branch
 * trace buffer armed), Sentinel, no-peel and ref-profiled. A cycle
 * budget without the degradation ladder fails some runs, so every
 * variant has warnings to order.
 */
std::vector<RunVariant>
reportVariants(int jobs)
{
    RunOptions base;
    base.jobs = jobs;
    base.only = {"gzip", "mcf"};
    base.supervise = true;
    base.supervision.max_cycles = 1'200'000;
    base.supervision.ladder = false;
    std::vector<RunVariant> v(4, RunVariant{{Config::IlpCs}, base});
    v[0].configs = standardConfigs();
    v[0].opts.pmu.btb_depth = 16;
    v[1].opts.spec_model = SpecModel::Sentinel;
    v[2].opts.tweak = [](CompileOptions &c) { c.enable_peel = false; };
    v[3].opts.profile_input = InputKind::Ref;
    return v;
}

TEST(FleetScheduleTest, MultiVariantPlanMatchesSeparateSuites)
{
    for (int jobs : {1, 4}) {
        const std::vector<RunVariant> variants = reportVariants(jobs);

        testing::internal::CaptureStderr();
        std::vector<std::string> separate;
        for (const RunVariant &v : variants)
            separate.push_back(suiteArtifact(runSuite(v.configs, v.opts),
                                             v.configs, nullptr));
        const std::string separate_warnings =
            testing::internal::GetCapturedStderr();

        TraceRecorder &rec = TraceRecorder::global();
        rec.enable();
        testing::internal::CaptureStderr();
        std::vector<size_t> progress;
        const std::vector<std::vector<WorkloadRuns>> plan =
            runPlan(variants, [&](size_t v, WorkloadRuns &) {
                progress.push_back(v);
            });
        const std::string plan_warnings =
            testing::internal::GetCapturedStderr();
        rec.disable();

        EXPECT_FALSE(separate_warnings.empty());
        EXPECT_EQ(plan_warnings, separate_warnings) << "jobs " << jobs;
        ASSERT_EQ(plan.size(), variants.size());
        for (size_t v = 0; v < variants.size(); ++v) {
            ASSERT_EQ(plan[v].size(), 2u);
            EXPECT_EQ(suiteArtifact(plan[v], variants[v].configs, nullptr),
                      separate[v])
                << "variant " << v << ", jobs " << jobs;
        }
        // One progress call per (variant, workload), in plan order.
        EXPECT_EQ(progress,
                  (std::vector<size_t>{0, 0, 1, 1, 2, 2, 3, 3}));

        // Shared preparation: one source run per workload, one profile
        // run per (workload, profile input).
        int source_runs = 0, profile_runs = 0;
        for (const TraceRecorder::Event &e : rec.events()) {
            source_runs += e.name.rfind("source-run ", 0) == 0;
            profile_runs += e.name.rfind("build+profile ", 0) == 0;
        }
        EXPECT_EQ(source_runs, 2) << "jobs " << jobs;
        EXPECT_EQ(profile_runs, 4) << "jobs " << jobs;
    }
}

/**
 * Warn-repeat counters restart with every variant: a plan's warnings do
 * not depend on what ran before it in the process. With a repeat limit
 * of 1, a counter left over from an earlier plan would silence these.
 */
TEST(FleetScheduleTest, IdenticalFailingPlansEachPrintTheirWarnings)
{
    RunOptions opts;
    opts.only = {"gzip"};
    opts.supervise = true;
    opts.supervision.max_cycles = 1000; // every sim fails
    opts.supervision.ladder = false;
    const RunVariant v{{Config::IlpCs}, opts};
    auto warnings = [](const std::vector<RunVariant> &plan) {
        testing::internal::CaptureStderr();
        runPlan(plan);
        return testing::internal::GetCapturedStderr();
    };

    setWarnRepeatLimit(1);
    const std::string first = warnings({v});
    const std::string second = warnings({v});
    const std::string both = warnings({v, v});
    setWarnRepeatLimit(5); // restore default for other tests

    EXPECT_NE(first.find("164.gzip [ILP-CS]"), std::string::npos) << first;
    EXPECT_EQ(second, first);
    EXPECT_EQ(both, first + first);
}

/** main() { return 1000 / divisor; } — divisor 0 on train, 7 on ref. */
Workload
divideWorkload()
{
    Workload w;
    w.name = "divide";
    w.signature = "divides by an input (zero on the train input)";
    w.build = [] {
        auto p = std::make_unique<Program>();
        const int divisor = p->addSymbol("dv_divisor", 8);
        IRBuilder b(*p);
        Function *f = b.beginFunction("main", 0);
        Reg d = b.ld(b.mova(divisor), 8, MemHint{divisor, -1});
        b.ret(b.div(b.movi(1000), d));
        p->entry_func = f->id;
        return p;
    };
    w.write_input = [](const Program &p, Memory &mem, InputKind kind) {
        const uint8_t v = kind == InputKind::Train ? 0 : 7;
        mem.writeBytes(p.symbolAddr(0), &v, 1);
    };
    return w;
}

TEST(FleetScheduleTest, ProfileTrapFailsEveryConfigAsBefore)
{
    const Workload w = divideWorkload();
    testing::internal::CaptureStderr();
    const WorkloadRuns runs = runWorkload(w, standardConfigs());
    const std::string warnings = testing::internal::GetCapturedStderr();

    EXPECT_TRUE(runs.error.empty()) << runs.error;
    EXPECT_EQ(runs.source_checksum, 1000 / 7);
    EXPECT_FALSE(runs.all_match);
    ASSERT_EQ(runs.by_config.size(), standardConfigs().size());
    for (Config cfg : standardConfigs()) {
        const ConfigRun &r = runs.by_config.at(cfg);
        const ConfigRun own = runWorkload(w, {cfg}).by_config.at(cfg);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.sim_status, RunStatus::Faulted);
        EXPECT_EQ(r.error.rfind("profile run failed: ", 0), 0u) << r.error;
        EXPECT_NE(r.error.find("integer divide by zero"), std::string::npos)
            << r.error;
        EXPECT_EQ(runRecordJson(w.name, runs.source_checksum, r),
                  runRecordJson(w.name, runs.source_checksum, own));
        EXPECT_NE(warnings.find("divide [" + std::string(configName(cfg)) +
                                "]: " + r.error),
                  std::string::npos)
            << warnings;
    }
}

} // namespace
} // namespace epic
