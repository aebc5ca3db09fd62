/**
 * @file
 * Renders the paper's tables and figures from one fleet pass.
 *
 * Usage: epiclab_report [--jobs N] [report ...]
 *
 * Every report is a view over the same compiled-and-simulated suite, so
 * the binary first runs the union of the run variants the selected
 * reports read as one runPlan() call over `--jobs` workers — each
 * workload's source run and profile runs are shared by every variant,
 * and all variants' tasks share one schedule — and then renders each
 * report from the merged WorkloadRuns.
 * With no report name it renders all of them in paper order (kReports
 * below). Results merge in suite order, so stdout is byte-identical for
 * every --jobs value.
 *
 * Absolute cycle counts are arbitrary (the substrate is a simulator);
 * the orderings, ratios and speedup factors are the reproduction
 * target, and each report prints the paper's value next to its own.
 *
 * Exit status: 2 on a bad command line (before anything runs); 1 when
 * any executed run failed or missed its source checksum; else 0.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>

#include "driver/experiment.h"
#include "support/cli.h"
#include "support/stats.h"

using namespace epic;

namespace {

const char *const kUsage = "usage: epiclab_report [--jobs N] [report ...]";

// ---- Run variants ----------------------------------------------------

/** One set of fleet runs: a configuration set under one RunOptions. */
enum Variant {
    kStandard,          ///< GCC..ILP-CS-DS, branch trace buffer armed
    kSentinel,          ///< ILP-CS under the Sentinel OS model
    kNoPeel,            ///< ILP-CS without loop peeling
    kNoPointerAnalysis, ///< ILP-CS without pointer analysis
    kConservativeNs,    ///< ILP-NS with [9]-style conservative regions
    kRefProfiled,       ///< ILP-CS profiled on the reference input
    kInline10,          ///< ILP-CS, inline budget 1.0x (call-heavy only)
    kInline12,
    kInline22,
    kInline30,
    kNumVariants
};

/** The inlining-ablation rows; the paper's 1.6x is the standard run. */
struct InlineRow
{
    double budget;
    Variant variant;
};
const InlineRow kInlineRows[] = {{1.0, kInline10},
                                 {1.2, kInline12},
                                 {1.6, kStandard},
                                 {2.2, kInline22},
                                 {3.0, kInline30}};

/** Call-heavy subset where inlining matters most. */
const std::vector<std::string> kCallHeavy = {
    "186.crafty", "252.eon", "253.perlbmk", "255.vortex", "300.twolf"};

RunVariant
variantSpec(Variant v)
{
    RunVariant s{{Config::IlpCs}, {}};
    RunOptions &o = s.opts;
    switch (v) {
      case kStandard:
        s.configs = {Config::Gcc, Config::ONS, Config::IlpNs,
                     Config::IlpCs, Config::IlpCsDs};
        // Arm the branch trace buffer: the per-branch profile is the
        // data source for fig7's prediction columns and hot sites.
        o.pmu.btb_depth = 16;
        break;
      case kSentinel:
        o.spec_model = SpecModel::Sentinel;
        break;
      case kNoPeel:
        o.tweak = [](CompileOptions &c) { c.enable_peel = false; };
        break;
      case kNoPointerAnalysis:
        o.tweak = [](CompileOptions &c) {
            c.enable_pointer_analysis = false;
        };
        break;
      case kConservativeNs:
        s.configs = {Config::IlpNs};
        o.tweak = [](CompileOptions &c) {
            c.hb_opts.conservative = true;
            c.sb_opts.allow_tail_dup = false;
            c.enable_peel = false;
        };
        break;
      case kRefProfiled:
        o.profile_input = InputKind::Ref;
        break;
      default:
        for (const InlineRow &row : kInlineRows) {
            if (row.variant != v)
                continue;
            const double budget = row.budget;
            o.tweak = [budget](CompileOptions &c) {
                c.inline_opts.growth_budget = budget;
            };
        }
        o.only = kCallHeavy;
        break;
    }
    return s;
}

/** Every variant's runs, in suite order (empty when not run). */
using Fleet = std::array<std::vector<WorkloadRuns>, kNumVariants>;

/** The run of `cfg`; a failed placeholder if the source run failed. */
const ConfigRun &
configRun(const WorkloadRuns &r, Config cfg)
{
    static const ConfigRun kMissing;
    auto it = r.by_config.find(cfg);
    return it == r.by_config.end() ? kMissing : it->second;
}

/** The runs of workload `name`; an empty placeholder if absent. */
const WorkloadRuns &
findRuns(const std::vector<WorkloadRuns> &suite, const std::string &name)
{
    static const WorkloadRuns kMissing;
    for (const WorkloadRuns &r : suite)
        if (r.name == name)
            return r;
    return kMissing;
}

// ---- Renderers ---------------------------------------------------------

/** Paper Figure 1: the modeled machine configuration. */
void
renderFig1(const Fleet &)
{
    MachineConfig m;
    printf("Modeled machine (cf. paper Figure 1):\n");
    printf("  issue: %d ops/cycle (2 bundles), M=%d I=%d F=%d B=%d, "
           "loads<=%d stores<=%d\n",
           m.issue_width, m.m_ports, m.i_ports, m.f_ports, m.b_ports,
           m.max_loads, m.max_stores);
    printf("  L1I %lluKB/%d-way/%dB %dcy   L1D %lluKB/%d-way/%dB %dcy\n",
           (unsigned long long)m.l1i.size_bytes / 1024, m.l1i.assoc,
           m.l1i.line_bytes, m.l1i.latency,
           (unsigned long long)m.l1d.size_bytes / 1024, m.l1d.assoc,
           m.l1d.line_bytes, m.l1d.latency);
    printf("  L2  %lluKB/%d-way/%dB %dcy   L3 %lluKB/%d-way/%dB %dcy   "
           "mem %dcy\n",
           (unsigned long long)m.l2.size_bytes / 1024, m.l2.assoc,
           m.l2.line_bytes, m.l2.latency,
           (unsigned long long)m.l3.size_bytes / 1024, m.l3.assoc,
           m.l3.line_bytes, m.l3.latency, m.mem_latency);
    printf("  IB %d ops, mispredict %dcy, DTLB %d entries "
           "(VHPT %dcy, OS walk %dcy), RSE %d stacked\n",
           m.instr_buffer_ops, m.mispredict_penalty, m.dtlb_entries,
           m.vhpt_walk_cycles, m.os_walk_cycles, m.stacked_phys_regs);
}

/**
 * Paper Table 1: SPEC-style ratios (reference-time constant / measured
 * cycles, higher is better) for GCC / O-NS / ILP-NS / ILP-CS, with the
 * geometric mean and the headline speedups.
 */
void
renderTable1(const Fleet &f)
{
    printf("Table 1: Estimated SPECint2000 performance ratios "
           "(higher is better)\n\n");

    const std::vector<WorkloadRuns> &results = f[kStandard];
    const Workload *wtab = allWorkloads().data();
    Table t({"Benchmark", "GCC", "O-NS", "ILP-NS", "ILP-CS",
             "CS/GCC", "CS/O-NS"});
    std::map<Config, std::vector<double>> ratios;
    std::vector<double> cs_vs_gcc, cs_vs_ons, ns_vs_ons;
    bool all_ok = true;

    for (size_t i = 0; i < results.size(); ++i) {
        const WorkloadRuns &r = results[i];
        all_ok = all_ok && r.all_match;
        double reftime = wtab[i].ref_time * 1e6;
        t.row().cell(r.name);
        double gcc = 0, ons = 0, ilpcs = 0, ilpns = 0;
        for (Config cfg : standardConfigs()) {
            const ConfigRun &cr = configRun(r, cfg);
            double ratio =
                cr.ok ? reftime / static_cast<double>(cr.pm.total()) : 0;
            ratios[cfg].push_back(ratio);
            t.cell(ratio, 0);
            if (cfg == Config::Gcc)
                gcc = ratio;
            if (cfg == Config::ONS)
                ons = ratio;
            if (cfg == Config::IlpNs)
                ilpns = ratio;
            if (cfg == Config::IlpCs)
                ilpcs = ratio;
        }
        t.cell(gcc > 0 ? ilpcs / gcc : 0, 2);
        t.cell(ons > 0 ? ilpcs / ons : 0, 2);
        if (gcc > 0)
            cs_vs_gcc.push_back(ilpcs / gcc);
        if (ons > 0) {
            cs_vs_ons.push_back(ilpcs / ons);
            ns_vs_ons.push_back(ilpns / ons);
        }
    }
    t.row().cell("GEOMEAN");
    for (Config cfg : standardConfigs())
        t.cell(geomean(ratios[cfg]), 0);
    t.cell(geomean(cs_vs_gcc), 2);
    t.cell(geomean(cs_vs_ons), 2);
    t.print();

    double max_gcc = 0, max_ons = 0;
    for (double v : cs_vs_gcc)
        max_gcc = std::max(max_gcc, v);
    for (double v : cs_vs_ons)
        max_ons = std::max(max_ons, v);

    printf("\nHeadline speedups (paper values in brackets):\n");
    printf("  ILP-CS vs GCC:   avg %.2f (1.55), max %.2f (2.30)\n",
           geomean(cs_vs_gcc), max_gcc);
    printf("  ILP-CS vs O-NS:  avg %.2f (1.13), max %.2f (1.50)\n",
           geomean(cs_vs_ons), max_ons);
    printf("  ILP-NS vs O-NS:  avg %.2f (1.10)\n", geomean(ns_vs_ons));
    printf("\nSemantic validation: %s\n",
           all_ok ? "all configurations reproduced the source checksum"
                  : "CHECKSUM MISMATCHES PRESENT");
}

/**
 * Paper Figure 2: "planned" speedup over O-NS (statically-anticipable
 * cycles only, paper footnote 4) vs "exploited" (total cycles).
 */
void
renderFig2(const Fleet &f)
{
    printf("Figure 2: planned vs exploited speedup over O-NS\n\n");

    Table t({"Benchmark", "NS-planned", "NS-exploited", "CS-planned",
             "CS-exploited", "CS-excl-dcache"});
    std::vector<double> ns_planned, ns_expl, cs_planned, cs_expl,
        cs_nodc;

    for (const WorkloadRuns &runs : f[kStandard]) {
        const Perfmon &base = configRun(runs, Config::ONS).pm;
        const Perfmon &ns = configRun(runs, Config::IlpNs).pm;
        const Perfmon &cs = configRun(runs, Config::IlpCs).pm;

        auto ratio = [](uint64_t a, uint64_t b2) {
            return b2 ? static_cast<double>(a) / b2 : 0.0;
        };
        double nsp = ratio(base.planned(), ns.planned());
        double nse = ratio(base.total(), ns.total());
        double csp = ratio(base.planned(), cs.planned());
        double cse = ratio(base.total(), cs.total());
        double csn = ratio(base.totalExcludingDataCache(),
                           cs.totalExcludingDataCache());

        t.row().cell(runs.name).cell(nsp, 2).cell(nse, 2).cell(csp, 2)
            .cell(cse, 2).cell(csn, 2);
        ns_planned.push_back(nsp);
        ns_expl.push_back(nse);
        cs_planned.push_back(csp);
        cs_expl.push_back(cse);
        cs_nodc.push_back(csn);
    }
    t.row().cell("GEOMEAN").cell(geomean(ns_planned), 2)
        .cell(geomean(ns_expl), 2).cell(geomean(cs_planned), 2)
        .cell(geomean(cs_expl), 2).cell(geomean(cs_nodc), 2);
    t.print();

    printf("\nPaper values: ILP-CS planned 1.36, exploited 1.13, "
           "excluding-only-dcache 1.21.\n");
    printf("The planned > exploited gap is the paper's point: dynamic "
           "(cache/TLB) effects\nerode statically-planned ILP.\n");
}

/**
 * Paper Figure 5: cycle accounting by category, normalized to the O-NS
 * total. The ILP-CS-DS column adds the tenth category, ALAT recovery.
 */
void
renderFig5(const Fleet &f)
{
    printf("Figure 5: cycle accounting, normalized to O-NS total\n\n");

    const std::vector<Config> configs = {Config::ONS, Config::IlpNs,
                                         Config::IlpCs, Config::IlpCsDs};
    for (const WorkloadRuns &runs : f[kStandard]) {
        double base =
            static_cast<double>(configRun(runs, Config::ONS).pm.total());
        if (base <= 0)
            continue;

        printf("%s%s\n", runs.name.c_str(),
               runs.all_match ? "" : "  [CHECKSUM MISMATCH]");
        std::vector<std::string> headers = {"category"};
        for (Config cfg : configs)
            headers.push_back(configName(cfg));
        Table t(headers);
        for (int c = 0; c < Perfmon::kNumCats; ++c) {
            t.row().cell(cycleCatName(static_cast<CycleCat>(c)));
            for (Config cfg : configs) {
                const Perfmon &pm = configRun(runs, cfg).pm;
                t.cell(static_cast<double>(pm.cycles[c]) / base, 3);
            }
        }
        t.row().cell("TOTAL");
        for (Config cfg : configs)
            t.cell(static_cast<double>(configRun(runs, cfg).pm.total()) /
                       base,
                   3);
        t.print();
        printf("\n");
    }
}

/**
 * Paper Figure 6: useful / squashed / NOP / kernel operations,
 * normalized to O-NS useful ops, with planned and achieved useful IPC.
 */
void
renderFig6(const Fleet &f)
{
    printf("Figure 6: operation accounting and IPC\n\n");

    const std::vector<Config> configs = {Config::ONS, Config::IlpNs,
                                         Config::IlpCs};
    std::map<Config, std::vector<double>> planned_ipcs, achieved_ipcs;

    for (const WorkloadRuns &runs : f[kStandard]) {
        double base = static_cast<double>(
            configRun(runs, Config::ONS).pm.useful_ops);
        if (base <= 0)
            continue;

        printf("%s%s\n", runs.name.c_str(),
               runs.all_match ? "" : "  [CHECKSUM MISMATCH]");
        Table t({"config", "useful", "squashed", "nops", "kernel",
                 "planned-IPC", "achieved-IPC"});
        for (Config cfg : configs) {
            const Perfmon &pm = configRun(runs, cfg).pm;
            t.row().cell(configName(cfg));
            t.cell(static_cast<double>(pm.useful_ops) / base, 3);
            t.cell(static_cast<double>(pm.squashed_ops) / base, 3);
            t.cell(static_cast<double>(pm.nop_ops) / base, 3);
            t.cell(static_cast<double>(pm.kernel_ops) / base, 3);
            t.cell(pm.plannedIpc(), 2);
            t.cell(pm.usefulIpc(), 2);
            planned_ipcs[cfg].push_back(pm.plannedIpc());
            achieved_ipcs[cfg].push_back(pm.usefulIpc());
        }
        t.print();
        printf("\n");
    }

    printf("Suite average IPC (paper: O-NS 2.00/1.10, ILP-NS 2.21/1.12, "
           "ILP-CS 2.63/1.23):\n");
    for (Config cfg : configs) {
        printf("  %-7s planned %.2f  achieved %.2f\n", configName(cfg),
               mean(planned_ipcs[cfg]), mean(achieved_ipcs[cfg]));
    }
}

/** One hot branch site of a workload's ILP-CS run. */
struct HotBranch
{
    uint64_t mispreds;
    uint64_t paddr;
    const PmuData::BranchSite *site;
    const WorkloadRuns *runs;
};

/**
 * Paper Figure 7: dynamic branches, predictions and mispredictions per
 * configuration, the §3.2/§3.5 branch and flush-cycle reductions, and
 * the hottest mispredicted ILP-CS branch sites. Predictions and
 * mispredictions are summed from the PMU per-branch profile, which the
 * declared reconciliation invariant ties to the Perfmon aggregates.
 */
void
renderFig7(const Fleet &f)
{
    printf("Figure 7: effects on branches and prediction\n\n");

    const std::vector<Config> configs = {Config::ONS, Config::IlpNs,
                                         Config::IlpCs};
    Table t({"Benchmark", "config", "branches", "predictions",
             "mispredicts", "rate"});
    std::vector<double> branch_reduction, flush_reduction;

    for (const WorkloadRuns &runs : f[kStandard]) {
        const Perfmon &base = configRun(runs, Config::ONS).pm;
        for (Config cfg : configs) {
            const ConfigRun &cr = configRun(runs, cfg);
            const Perfmon &pm = cr.pm;
            // Fall back to the aggregate counters when the run carries
            // no PMU data (e.g. degraded to the functional rung); the
            // sums equal the aggregates, so the columns match either way.
            uint64_t preds = pm.branch_predictions;
            uint64_t mispreds = pm.mispredictions;
            if (cr.pmu) {
                preds = 0;
                mispreds = 0;
                for (const auto &[paddr, site] : cr.pmu->branchProfile()) {
                    (void)paddr;
                    preds += site.predictions;
                    mispreds += site.mispredictions;
                }
            }
            t.row().cell(cfg == Config::ONS ? runs.name : "");
            t.cell(configName(cfg));
            t.cell(static_cast<long long>(pm.branches));
            t.cell(static_cast<long long>(preds));
            t.cell(static_cast<long long>(mispreds));
            t.cell(preds ? 1.0 -
                               static_cast<double>(mispreds) /
                                   static_cast<double>(preds)
                         : 0.0, // matches Perfmon::predictionRate()
                   4);
        }
        const Perfmon &cs = configRun(runs, Config::IlpCs).pm;
        if (base.branches > 0 && cs.branches > 0) {
            branch_reduction.push_back(
                static_cast<double>(base.branches) / cs.branches);
        }
        uint64_t bf = base.get(CycleCat::BrMispredFlush);
        uint64_t cf = cs.get(CycleCat::BrMispredFlush);
        if (bf > 0 && cf > 0)
            flush_reduction.push_back(static_cast<double>(bf) / cf);
    }
    t.print();

    double br_red = 1.0 - 1.0 / geomean(branch_reduction);
    double fl_red = 1.0 - 1.0 / geomean(flush_reduction);
    printf("\nDynamic branch reduction, ILP-CS vs O-NS: %.0f%% "
           "(paper: 27%%)\n",
           br_red * 100);
    printf("Misprediction-flush cycle reduction:       %.0f%% "
           "(paper: 22%%)\n",
           fl_red * 100);

    // Deterministic order: mispredictions desc, code address asc.
    std::vector<HotBranch> hot;
    for (const WorkloadRuns &runs : f[kStandard]) {
        const ConfigRun &cr = configRun(runs, Config::IlpCs);
        if (!cr.pmu)
            continue;
        for (const auto &[paddr, site] : cr.pmu->branchProfile())
            if (site.mispredictions)
                hot.push_back({site.mispredictions, paddr, &site, &runs});
    }
    std::sort(hot.begin(), hot.end(),
              [](const HotBranch &a, const HotBranch &b) {
                  if (a.mispreds != b.mispreds)
                      return a.mispreds > b.mispreds;
                  return a.paddr < b.paddr;
              });
    if (!hot.empty()) {
        printf("\nHot mispredicted branches (ILP-CS):\n");
        for (size_t i = 0; i < hot.size() && i < 10; ++i) {
            const HotBranch &hb = hot[i];
            const ConfigRun &cr = configRun(*hb.runs, Config::IlpCs);
            const Function *fn =
                cr.prog ? cr.prog->func(hb.site->fid) : nullptr;
            printf("  %-12s %-20s bb%-4d @%#llx  %8llu/%8llu mispred "
                   "(taken %llu)\n",
                   hb.runs->name.c_str(), fn ? fn->name.c_str() : "?",
                   hb.site->bid, (unsigned long long)hb.paddr,
                   (unsigned long long)hb.mispreds,
                   (unsigned long long)hb.site->predictions,
                   (unsigned long long)hb.site->taken);
        }
    }
}

/**
 * Paper Figure 8: data-cache stall ("load bubble") cycles of ILP-NS and
 * ILP-CS relative to O-NS; speculation moves them both ways and on
 * average the effects roughly cancel.
 */
void
renderFig8(const Fleet &f)
{
    printf("Figure 8: data-cache stall cycles relative to O-NS\n\n");

    Table t({"Benchmark", "ILP-NS", "ILP-CS", "CS extra spec loads"});
    std::vector<double> ns_ratio, cs_ratio;

    for (const WorkloadRuns &runs : f[kStandard]) {
        uint64_t base =
            configRun(runs, Config::ONS).pm.get(CycleCat::IntLoadBubble);
        const Perfmon &ns = configRun(runs, Config::IlpNs).pm;
        const Perfmon &cs = configRun(runs, Config::IlpCs).pm;
        double rn = base ? static_cast<double>(
                               ns.get(CycleCat::IntLoadBubble)) /
                               base
                         : 1.0;
        double rc = base ? static_cast<double>(
                               cs.get(CycleCat::IntLoadBubble)) /
                               base
                         : 1.0;
        long long extra =
            static_cast<long long>(cs.loads) -
            static_cast<long long>(ns.loads);
        t.row().cell(runs.name).cell(rn, 3).cell(rc, 3).cell(extra);
        ns_ratio.push_back(rn);
        cs_ratio.push_back(rc);
    }
    t.print();
    printf("\nGeomean load-bubble ratio: ILP-NS %.3f, ILP-CS %.3f "
           "(paper: near 1.0 on average,\nwith per-benchmark swings in "
           "both directions).\n",
           geomean(ns_ratio), geomean(cs_ratio));
}

/**
 * Paper Figure 9 / §4.3: general vs Sentinel control-speculation OS
 * models on ILP-CS (a wild general-model load walks the page tables in
 * the kernel every time), then data speculation: ILP-CS vs ILP-CS-DS.
 */
void
renderFig9(const Fleet &f)
{
    printf("Figure 9 / section 4.3: general vs sentinel speculation\n\n");

    Table t({"Benchmark", "wild loads", "gen kernel%", "sent kernel%",
             "gen cycles", "sent cycles", "gen/sent"});
    const std::vector<WorkloadRuns> &std_runs = f[kStandard];
    for (size_t i = 0; i < std_runs.size(); ++i) {
        const ConfigRun &gen = configRun(std_runs[i], Config::IlpCs);
        const ConfigRun &sent = configRun(f[kSentinel][i], Config::IlpCs);
        if (!gen.ok || !sent.ok) {
            printf("%s: run failed\n", std_runs[i].name.c_str());
            continue;
        }
        double gen_k = 100.0 * gen.pm.get(CycleCat::Kernel) /
                       std::max<uint64_t>(gen.pm.total(), 1);
        double sent_k = 100.0 * sent.pm.get(CycleCat::Kernel) /
                        std::max<uint64_t>(sent.pm.total(), 1);
        t.row().cell(std_runs[i].name);
        t.cell(static_cast<long long>(gen.pm.wild_loads));
        t.cell(gen_k, 1);
        t.cell(sent_k, 1);
        t.cell(static_cast<long long>(gen.pm.total()));
        t.cell(static_cast<long long>(sent.pm.total()));
        t.cell(static_cast<double>(gen.pm.total()) / sent.pm.total(), 3);
    }
    t.print();

    printf("\nExpected shape (paper): gcc pays heavily under the general "
           "model (~20%% kernel\ntime chasing spurious page walks); "
           "parser/perlbmk/gap show smaller effects;\nbenchmarks without "
           "pointer/int unions are indifferent to the model.\n");

    // Loads pinned only by a may-aliasing store advance past it as
    // ld.a/chk.a pairs; chk.a misses would surface in "recov cyc" as
    // misses x alat_recovery_cycles.
    printf("\nData speculation: ILP-CS vs ILP-CS-DS (general OS model)\n\n");

    Table d({"Benchmark", "ld.a (dyn)", "alat hit", "alat miss",
             "recov cyc", "CS cycles", "CS-DS cycles", "CS/CS-DS"});
    for (const WorkloadRuns &runs : std_runs) {
        const ConfigRun &cs = configRun(runs, Config::IlpCs);
        const ConfigRun &ds = configRun(runs, Config::IlpCsDs);
        if (!cs.ok || !ds.ok) {
            printf("%s: run failed\n", runs.name.c_str());
            continue;
        }
        d.row().cell(runs.name);
        d.cell(static_cast<long long>(ds.pm.advanced_loads));
        d.cell(static_cast<long long>(ds.pm.alat_hits));
        d.cell(static_cast<long long>(ds.pm.alat_misses));
        d.cell(static_cast<long long>(
            ds.pm.get(CycleCat::AlatRecovery)));
        d.cell(static_cast<long long>(cs.pm.total()));
        d.cell(static_cast<long long>(ds.pm.total()));
        d.cell(static_cast<double>(cs.pm.total()) / ds.pm.total(), 3);
    }
    d.print();
}

/**
 * Paper Figure 10: per-function execution time of 255.vortex, O-NS vs
 * ILP-NS and ILP-CS. The gcc-compiled library functions stay near 1.0
 * while the application functions improve.
 */
void
renderFig10(const Fleet &f)
{
    const std::string name = "255.vortex";
    printf("Figure 10: function-level execution time, %s\n\n",
           name.c_str());

    const WorkloadRuns &runs = findRuns(f[kStandard], name);
    const ConfigRun &base = configRun(runs, Config::ONS);
    const ConfigRun &ns = configRun(runs, Config::IlpNs);
    const ConfigRun &cs = configRun(runs, Config::IlpCs);
    if (!base.ok || !ns.ok || !cs.ok) {
        printf("runs failed\n");
        return;
    }

    // Match functions by id: every configuration clones one source
    // program, so ids are shared between compilations.
    struct Row
    {
        std::string name;
        bool library;
        uint64_t base_cycles, ns_cycles, cs_cycles;
    };
    std::vector<Row> rows;
    uint64_t base_total = std::max<uint64_t>(base.pm.total(), 1);
    for (const auto &fn : base.prog->funcs) {
        if (!fn)
            continue;
        auto get = [&](const ConfigRun &r) -> uint64_t {
            auto it = r.pm.func_cycles.find(fn->id);
            return it == r.pm.func_cycles.end() ? 0 : it->second;
        };
        Row row;
        row.name = fn->name;
        row.library = (fn->attr & kFuncLibrary) != 0;
        row.base_cycles = get(base);
        row.ns_cycles = get(ns);
        row.cs_cycles = get(cs);
        if (row.base_cycles > 0)
            rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.base_cycles > b.base_cycles;
    });

    Table t({"Function", "O-NS share", "ILP-NS/O-NS", "ILP-CS/O-NS",
             "note"});
    for (const Row &r : rows) {
        double share = static_cast<double>(r.base_cycles) / base_total;
        double rn = static_cast<double>(r.ns_cycles) / r.base_cycles;
        double rc = static_cast<double>(r.cs_cycles) / r.base_cycles;
        t.row().cell(r.name).cell(share, 3).cell(rn, 2).cell(rc, 2);
        t.cell(r.library ? "gcc-compiled library" : "");
    }
    t.print();

    printf("\nTotal: ILP-NS/O-NS %.2f, ILP-CS/O-NS %.2f\n",
           static_cast<double>(ns.pm.total()) / base.pm.total(),
           static_cast<double>(cs.pm.total()) / base.pm.total());
    printf("Paper signature: library functions stay ~1.0 in both "
           "columns while application\nfunctions drop below 1.0.\n");
}

/**
 * Paper §3.2: static code growth of ILP-NS region formation (tail
 * duplication ~21%, peeling ~2%) against the dynamic branches removed.
 */
void
renderSec32(const Fleet &f)
{
    printf("Section 3.2: code growth from region formation\n\n");

    Table t({"Benchmark", "base instrs", "tail-dup %", "peel %",
             "unroll %", "total ILP growth %", "dyn branch red. %"});
    std::vector<double> dup_pct, peel_pct, branch_red;

    for (const WorkloadRuns &runs : f[kStandard]) {
        const ConfigRun &ons = configRun(runs, Config::ONS);
        const ConfigRun &ilp = configRun(runs, Config::IlpNs);
        if (!ons.ok || !ilp.ok)
            continue;
        double base = std::max(1, ilp.stats.instrs_after_classical);
        double dup = 100.0 * ilp.stats.sb.tail_dup_instrs / base;
        double peel = 100.0 * ilp.stats.peel.peel_instrs / base;
        double unroll = 100.0 * ilp.stats.peel.unroll_instrs / base;
        double growth =
            100.0 * (ilp.stats.instrs_after_regions - ilp.stats.instrs_after_classical) /
            base;
        double br = ons.pm.branches > 0
                        ? 100.0 * (1.0 - static_cast<double>(
                                             ilp.pm.branches) /
                                             ons.pm.branches)
                        : 0.0;
        t.row().cell(runs.name);
        t.cell(static_cast<long long>(ilp.stats.instrs_after_classical));
        t.cell(dup, 1);
        t.cell(peel, 1);
        t.cell(unroll, 1);
        t.cell(growth, 1);
        t.cell(br, 1);
        dup_pct.push_back(dup);
        peel_pct.push_back(peel);
        branch_red.push_back(br);
    }
    t.print();

    printf("\nSuite averages: tail-dup +%.1f%% (paper: +21%%), "
           "peel +%.1f%% (paper: +2%%),\n"
           "dynamic branches removed %.1f%% (paper: 27%%)\n",
           mean(dup_pct), mean(peel_pct), mean(branch_red));
}

/**
 * Paper §3.5: a conservative, production-style predication policy (no
 * code-replicating enablers, strict path inclusion) against IMPACT's
 * inclusive ILP-NS region formation; [9] reports 7% fewer branches and
 * a 2% gain against the paper's 27% / 10%.
 */
void
renderSec35(const Fleet &f)
{
    printf("Section 3.5: conservative vs inclusive predication\n\n");

    Table t({"Benchmark", "cons br red %", "incl br red %",
             "cons speedup", "incl speedup"});
    std::vector<double> cons_br, incl_br, cons_sp, incl_sp;

    const std::vector<WorkloadRuns> &std_runs = f[kStandard];
    for (size_t i = 0; i < std_runs.size(); ++i) {
        const ConfigRun &ons = configRun(std_runs[i], Config::ONS);
        const ConfigRun &cons =
            configRun(f[kConservativeNs][i], Config::IlpNs);
        const ConfigRun &incl = configRun(std_runs[i], Config::IlpNs);
        if (!ons.ok || !cons.ok || !incl.ok)
            continue;

        auto br_red = [&](const ConfigRun &r) {
            return ons.pm.branches > 0
                       ? 100.0 * (1.0 - static_cast<double>(
                                            r.pm.branches) /
                                            ons.pm.branches)
                       : 0.0;
        };
        auto speedup = [&](const ConfigRun &r) {
            return r.pm.total() > 0 ? static_cast<double>(
                                          ons.pm.total()) /
                                          r.pm.total()
                                    : 0.0;
        };
        double cb = br_red(cons), ib = br_red(incl);
        double csp = speedup(cons), isp = speedup(incl);
        t.row().cell(std_runs[i].name).cell(cb, 1).cell(ib, 1)
            .cell(csp, 3).cell(isp, 3);
        cons_br.push_back(cb);
        incl_br.push_back(ib);
        cons_sp.push_back(csp);
        incl_sp.push_back(isp);
    }
    t.print();

    printf("\nSuite averages: conservative removes %.1f%% of branches "
           "for %.3fx\n(paper [9]: ~7%% and 1.02x); inclusive removes "
           "%.1f%% for %.3fx\n(paper ILP-NS: 27%% and 1.10x).\n",
           mean(cons_br), geomean(cons_sp), mean(incl_br),
           geomean(incl_sp));
}

/**
 * Paper §4.1: specialization improves fetch efficiency on average, but
 * "lukewarm" replicated code (crafty, twolf) competes for the 16 KB L1I.
 * L1I misses are attributed to the transformation that created the
 * code via the provenance bits.
 */
void
renderSec41(const Fleet &f)
{
    printf("Section 4.1: code-expansion effects on the I-cache\n\n");

    Table t({"Benchmark", "L1I acc ratio", "stall ratio",
             "miss% taildup", "miss% peel/rem", "speedup"});
    std::vector<double> acc_ratio, stall_ratio;

    for (const WorkloadRuns &runs : f[kStandard]) {
        const ConfigRun &ons = configRun(runs, Config::ONS);
        const ConfigRun &cs = configRun(runs, Config::IlpCs);
        if (!ons.ok || !cs.ok)
            continue;

        double ar = ons.pm.l1i_accesses
                        ? static_cast<double>(cs.pm.l1i_accesses) /
                              ons.pm.l1i_accesses
                        : 1.0;
        uint64_t bs = ons.pm.get(CycleCat::FrontEndBubble);
        uint64_t csb = cs.pm.get(CycleCat::FrontEndBubble);
        double sr = bs ? static_cast<double>(csb) / bs : 1.0;
        double mt = cs.pm.l1i_misses
                        ? 100.0 * cs.pm.l1i_miss_taildup /
                              cs.pm.l1i_misses
                        : 0.0;
        double mp = cs.pm.l1i_misses
                        ? 100.0 * cs.pm.l1i_miss_peel_remainder /
                              cs.pm.l1i_misses
                        : 0.0;
        double sp = cs.pm.total()
                        ? static_cast<double>(ons.pm.total()) /
                              cs.pm.total()
                        : 0.0;
        t.row().cell(runs.name).cell(ar, 3).cell(sr, 3).cell(mt, 1)
            .cell(mp, 1).cell(sp, 3);
        acc_ratio.push_back(ar);
        if (bs > 100) // only meaningful when the baseline stalls at all
            stall_ratio.push_back(sr);
    }
    t.print();

    printf("\nSuite geomean: L1I accesses x%.3f (paper: ~0.90), "
           "I-stall cycles x%.3f (paper: ~0.85\nwith crafty/twolf "
           "above 1.0). Lukewarm replication shows up in the taildup/\n"
           "peel-remainder miss attribution columns.\n",
           geomean(acc_ratio),
           stall_ratio.empty() ? 1.0 : geomean(stall_ratio));
}

/**
 * Paper §4.4: ILP consumes register names; in crafty and parser the
 * cost surfaces as register stack engine traffic and cycles.
 */
void
renderSec44(const Fleet &f)
{
    printf("Section 4.4: register utilization and the RSE\n\n");

    Table t({"Benchmark", "config", "stacked regs", "spilled vregs",
             "RSE regs moved", "RSE cycle %"});
    for (const WorkloadRuns &runs : f[kStandard]) {
        for (Config cfg : {Config::ONS, Config::IlpCs}) {
            const ConfigRun &r = configRun(runs, cfg);
            if (!r.ok)
                continue;
            double rse_pct = 100.0 * r.pm.get(CycleCat::Rse) /
                             std::max<uint64_t>(r.pm.total(), 1);
            t.row().cell(cfg == Config::ONS ? runs.name : "");
            t.cell(configName(cfg));
            t.cell(static_cast<long long>(r.stats.ra.gr_used));
            t.cell(static_cast<long long>(r.stats.ra.spilled));
            t.cell(static_cast<long long>(r.pm.rse_spill_regs +
                                          r.pm.rse_fill_regs));
            t.cell(rse_pct, 2);
        }
    }
    t.print();

    printf("\nPaper signature: crafty and parser show the largest "
           "ILP-driven register\nconsumption and visible RSE time; most "
           "other benchmarks stay near zero.\n");
}

/**
 * Paper §4.6: ILP-CS profiled on the reference input against the
 * normal train-profiled build, both measured on the reference input
 * (paper: crafty +5%, perlbmk +10%, gap +3%).
 */
void
renderSec46(const Fleet &f)
{
    printf("Section 4.6: profile variation (train-on-ref vs normal)\n\n");

    Table t({"Benchmark", "train-profiled", "ref-profiled",
             "improvement %"});
    const std::vector<WorkloadRuns> &std_runs = f[kStandard];
    for (size_t i = 0; i < std_runs.size(); ++i) {
        const ConfigRun &normal = configRun(std_runs[i], Config::IlpCs);
        const ConfigRun &self = configRun(f[kRefProfiled][i], Config::IlpCs);
        if (!normal.ok || !self.ok) {
            printf("%s: run failed\n", std_runs[i].name.c_str());
            continue;
        }
        double gain = 100.0 * (static_cast<double>(normal.pm.total()) /
                                   self.pm.total() -
                               1.0);
        t.row().cell(std_runs[i].name);
        t.cell(static_cast<long long>(normal.pm.total()));
        t.cell(static_cast<long long>(self.pm.total()));
        t.cell(gain, 1);
    }
    t.print();

    printf("\nPaper: training on the reference input improved crafty "
           "+5%%, perlbmk +10%%,\ngap +3%%; the rest were stable. "
           "Positive numbers here mean the normal\n(train-profiled) "
           "build lost performance to profile variation.\n");
}

/**
 * One ILP-CS on/off ablation table: `with` from the standard run,
 * `without` from `variant`; returns the per-workload speedups.
 */
std::vector<double>
renderOnOff(const Fleet &f, Variant variant, Table &t, bool peeled_column)
{
    std::vector<double> speedups;
    const std::vector<WorkloadRuns> &std_runs = f[kStandard];
    for (size_t i = 0; i < std_runs.size(); ++i) {
        const ConfigRun &with = configRun(std_runs[i], Config::IlpCs);
        const ConfigRun &without = configRun(f[variant][i], Config::IlpCs);
        if (!with.ok || !without.ok)
            continue;
        double sp =
            static_cast<double>(without.pm.total()) / with.pm.total();
        t.row().cell(std_runs[i].name);
        t.cell(static_cast<long long>(with.pm.total()));
        t.cell(static_cast<long long>(without.pm.total()));
        t.cell(sp, 3);
        if (peeled_column)
            t.cell(static_cast<long long>(with.stats.peel.peeled));
        speedups.push_back(sp);
    }
    t.print();
    return speedups;
}

/** Loop peeling (paper Figure 3) on/off under ILP-CS. */
void
renderAblationPeeling(const Fleet &f)
{
    printf("Ablation: loop peeling on/off (ILP-CS)\n\n");
    Table t({"Benchmark", "with peel", "without", "peel speedup",
             "loops peeled"});
    std::vector<double> speedups = renderOnOff(f, kNoPeel, t, true);
    printf("\nGeomean peeling contribution: %.3fx. Expected: largest on "
           "crafty/twolf (the\npaper's Figure 3 pattern), near-neutral "
           "elsewhere.\n",
           geomean(speedups));
}

/** Interprocedural pointer analysis (paper §2.2/§3.1) on/off, ILP-CS. */
void
renderAblationPointerAnalysis(const Fleet &f)
{
    printf("Ablation: interprocedural pointer analysis on/off "
           "(ILP-CS)\n\n");
    Table t({"Benchmark", "with analysis", "without", "contribution"});
    std::vector<double> speedups =
        renderOnOff(f, kNoPointerAnalysis, t, false);
    printf("\nGeomean pointer-analysis contribution: %.3fx. eon and "
           "perlbmk are unaffected\n(the paper disables analysis for "
           "them in all configurations); gap stays limited\neither way "
           "(its dependences are spurious but unresolvable — the "
           "data-speculation\nopportunity of §2).\n",
           geomean(speedups));
}

/**
 * Paper §3.1 inlining budget: IMPACT inlines in priority order until
 * touched code grows 1.6x, "an empirically determined value". Speedups
 * are against each workload's own 1.0x run.
 */
void
renderAblationInliningBudget(const Fleet &f)
{
    printf("Ablation: inlining growth budget (paper default 1.6x)\n\n");

    Table t({"budget", "geomean speedup vs 1.0x", "code growth x",
             "inlined sites"});
    std::map<std::string, uint64_t> baseline;
    for (const InlineRow &row : kInlineRows) {
        std::vector<double> speedups, growths;
        int inlined = 0;
        for (const std::string &name : kCallHeavy) {
            const ConfigRun &r =
                configRun(findRuns(f[row.variant], name), Config::IlpCs);
            if (!r.ok)
                continue;
            if (&row == &kInlineRows[0])
                baseline[name] = r.pm.total();
            auto base = baseline.find(name);
            if (base != baseline.end())
                speedups.push_back(static_cast<double>(base->second) /
                                   r.pm.total());
            growths.push_back(
                static_cast<double>(r.stats.instrs_after_classical) /
                std::max(1, r.instrs_source));
            inlined += r.stats.inl.inlined;
        }
        t.row().cell(row.budget, 1).cell(geomean(speedups), 3)
            .cell(geomean(growths), 2)
            .cell(static_cast<long long>(inlined));
    }
    t.print();
    printf("\nExpected: large gains from 1.0x to ~1.6x, diminishing (or "
           "negative, via I-cache\npressure) returns beyond — the "
           "empirical basis for the paper's 1.6x.\n");
}

/** A report: its name, the variants it reads, and its renderer. */
struct Report
{
    const char *name;
    std::vector<Variant> variants;
    void (*render)(const Fleet &);
};

/** Every report, in paper order. */
const Report kReports[] = {
    {"fig1", {}, renderFig1},
    {"table1", {kStandard}, renderTable1},
    {"fig2", {kStandard}, renderFig2},
    {"fig5", {kStandard}, renderFig5},
    {"fig6", {kStandard}, renderFig6},
    {"fig7", {kStandard}, renderFig7},
    {"fig8", {kStandard}, renderFig8},
    {"fig9", {kStandard, kSentinel}, renderFig9},
    {"fig10", {kStandard}, renderFig10},
    {"sec32", {kStandard}, renderSec32},
    {"sec35", {kStandard, kConservativeNs}, renderSec35},
    {"sec41", {kStandard}, renderSec41},
    {"sec44", {kStandard}, renderSec44},
    {"sec46", {kStandard, kRefProfiled}, renderSec46},
    {"ablation-peeling", {kStandard, kNoPeel}, renderAblationPeeling},
    {"ablation-pointer-analysis",
     {kStandard, kNoPointerAnalysis},
     renderAblationPointerAnalysis},
    {"ablation-inlining-budget",
     {kStandard, kInline10, kInline12, kInline22, kInline30},
     renderAblationInliningBudget},
};

} // namespace

int
main(int argc, char **argv)
{
    int jobs = 1;
    std::vector<const Report *> selected;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--jobs") {
            if (i + 1 >= argc)
                usageError(kUsage, "--jobs requires a value");
            jobs = static_cast<int>(
                parseIntFlag("--jobs", argv[++i], 1, 4096));
            continue;
        }
        if (a[0] == '-')
            usageError(kUsage, "unknown option: '" + a + "'");
        const Report *match = nullptr;
        for (const Report &r : kReports)
            if (a == r.name)
                match = &r;
        if (!match) {
            std::string names;
            for (const Report &r : kReports)
                names += std::string(" ") + r.name;
            usageError(kUsage, "unknown report '" + a + "'; reports:" +
                                   names);
        }
        selected.push_back(match);
    }
    if (selected.empty())
        for (const Report &r : kReports)
            selected.push_back(&r);

    std::array<bool, kNumVariants> needed{};
    for (const Report *r : selected)
        for (Variant v : r->variants)
            needed[v] = true;

    // One plan over every variant the selected reports read. The
    // standard variant goes last: it keeps its compiled programs and
    // PMU data for rendering, so they pile up only while the profiled
    // programs it is the last reader of are being freed.
    std::vector<Variant> planned;
    std::vector<RunVariant> plan;
    for (int i = 1; i <= kNumVariants; ++i) {
        const Variant v = static_cast<Variant>(i % kNumVariants);
        if (!needed[v])
            continue;
        planned.push_back(v);
        plan.push_back(variantSpec(v));
        plan.back().opts.jobs = jobs;
    }
    bool all_match = true;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::vector<WorkloadRuns>> ran =
        runPlan(plan, [&](size_t i, WorkloadRuns &r) {
            all_match = all_match && r.all_match;
            // Only fig7 and fig10 read compiled programs or PMU data,
            // and only from the standard variant; dropping the rest
            // as they merge nearly halves peak RSS.
            if (planned[i] != kStandard)
                for (auto &[cfg, cr] : r.by_config) {
                    (void)cfg;
                    cr.prog.reset();
                    cr.pmu.reset();
                }
        });
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    fprintf(stderr, "fleet wall clock: %.1f s (jobs=%d)\n", wall_s, jobs);

    Fleet fleet;
    for (size_t i = 0; i < planned.size(); ++i)
        fleet[planned[i]] = std::move(ran[i]);
    for (const Report *r : selected)
        r->render(fleet);

    if (!all_match)
        fprintf(stderr, "epiclab_report: a run failed or missed its "
                        "source checksum\n");
    return all_match ? 0 : 1;
}
