#include "support/telemetry/artifact.h"

#include <cstring>
#include <sstream>

#include "driver/experiment.h"
#include "sim/pmu/pmu.h" // cycleCatKey/pmuCounterKey (shared with sim)
#include "support/io.h"
#include "support/logging.h"
#include "support/telemetry/trace.h"

namespace epic {

const char *const kRunSchemaVersion = "epiclab.run.v3";
const char *const kSamplesSchemaVersion = "epiclab.samples.v2";

namespace {

/** Pass names become path components: spaces to underscores. */
std::string
pathComponent(const std::string &name)
{
    std::string out = name;
    for (char &c : out)
        if (c == ' ')
            c = '_';
    return out;
}

} // namespace

void
recordPerfmon(StatsRegistry &reg, const Perfmon &pm)
{
    for (int c = 0; c < Perfmon::kNumCats; ++c)
        reg.setInt(std::string("sim.cycles.") +
                       cycleCatKey(static_cast<CycleCat>(c)),
                   static_cast<int64_t>(pm.cycles[c]));
    reg.setInt("sim.cycles_total", static_cast<int64_t>(pm.total()));
    reg.setInt("sim.cycles_planned", static_cast<int64_t>(pm.planned()));
    reg.declareSum("cycle-categories-sum", "sim.cycles.",
                   "sim.cycles_total");

    reg.setInt("sim.ops.useful", static_cast<int64_t>(pm.useful_ops));
    reg.setInt("sim.ops.squashed", static_cast<int64_t>(pm.squashed_ops));
    reg.setInt("sim.ops.nop", static_cast<int64_t>(pm.nop_ops));
    reg.setInt("sim.ops.kernel", static_cast<int64_t>(pm.kernel_ops));
    reg.setInt("sim.ops_total",
               static_cast<int64_t>(pm.useful_ops + pm.squashed_ops +
                                    pm.nop_ops + pm.kernel_ops));
    reg.declareSum("operation-accounting-sum", "sim.ops.",
                   "sim.ops_total");

    reg.setInt("sim.branch.executed", static_cast<int64_t>(pm.branches));
    reg.setInt("sim.branch.predictions",
               static_cast<int64_t>(pm.branch_predictions));
    reg.setInt("sim.branch.mispredictions",
               static_cast<int64_t>(pm.mispredictions));

    reg.setInt("sim.mem.loads", static_cast<int64_t>(pm.loads));
    reg.setInt("sim.mem.stores", static_cast<int64_t>(pm.stores));
    reg.setInt("sim.mem.l1d_accesses",
               static_cast<int64_t>(pm.l1d_accesses));
    reg.setInt("sim.mem.l1d_misses", static_cast<int64_t>(pm.l1d_misses));
    reg.setInt("sim.mem.l1i_accesses",
               static_cast<int64_t>(pm.l1i_accesses));
    reg.setInt("sim.mem.l1i_misses", static_cast<int64_t>(pm.l1i_misses));
    reg.setInt("sim.mem.l2_accesses", static_cast<int64_t>(pm.l2_accesses));
    reg.setInt("sim.mem.l2_misses", static_cast<int64_t>(pm.l2_misses));
    reg.setInt("sim.mem.l2i_misses", static_cast<int64_t>(pm.l2i_misses));
    reg.setInt("sim.mem.l3_accesses", static_cast<int64_t>(pm.l3_accesses));
    reg.setInt("sim.mem.l3_misses", static_cast<int64_t>(pm.l3_misses));
    reg.setInt("sim.mem.dtlb_misses",
               static_cast<int64_t>(pm.dtlb_misses));
    reg.setInt("sim.mem.vhpt_walks", static_cast<int64_t>(pm.vhpt_walks));
    reg.setInt("sim.mem.wild_loads", static_cast<int64_t>(pm.wild_loads));
    reg.setInt("sim.mem.null_page_loads",
               static_cast<int64_t>(pm.null_page_loads));
    reg.setInt("sim.mem.stlf_conflicts",
               static_cast<int64_t>(pm.stlf_conflicts));

    reg.setInt("sim.rse.spill_regs",
               static_cast<int64_t>(pm.rse_spill_regs));
    reg.setInt("sim.rse.fill_regs",
               static_cast<int64_t>(pm.rse_fill_regs));

    reg.setInt("sim.icache_provenance.l1i_taildup",
               static_cast<int64_t>(pm.l1i_miss_taildup));
    reg.setInt("sim.icache_provenance.l1i_peel_remainder",
               static_cast<int64_t>(pm.l1i_miss_peel_remainder));
    reg.setInt("sim.icache_provenance.l2i_taildup",
               static_cast<int64_t>(pm.l2i_miss_taildup));
    reg.setInt("sim.icache_provenance.l2i_peel_remainder",
               static_cast<int64_t>(pm.l2i_miss_peel_remainder));

    reg.setInt("sim.alat.advanced_loads",
               static_cast<int64_t>(pm.advanced_loads));
    reg.setInt("sim.alat.hits", static_cast<int64_t>(pm.alat_hits));
    reg.setInt("sim.alat.misses", static_cast<int64_t>(pm.alat_misses));

    // Per-function attribution as a distribution (unordered iteration
    // is fine: count/sum/min/max are order-independent). Registered at
    // zero first, so a run with no timed function has the same keys.
    for (const char *part : {".count", ".sum", ".min", ".max"})
        reg.setInt(std::string("sim.func_cycles") + part, 0);
    for (const auto &[fid, cyc] : pm.func_cycles) {
        (void)fid;
        reg.addSample("sim.func_cycles", static_cast<int64_t>(cyc));
    }
}

void
recordPmu(StatsRegistry &reg, const PmuData &pmu)
{
    // Every pmu.* path is registered only for the PMU features the run
    // options armed. Each stream gets a declared *equality* invariant
    // (a sum with exactly one addend) against the sim.* total
    // recordPerfmon registered: reconciliation is checked at dump time
    // like every other declared invariant.
    if (pmu.options().sample_every != 0) {
        for (int c = 0; c < Perfmon::kNumCats; ++c) {
            const CycleCat cat = static_cast<CycleCat>(c);
            const std::string path =
                std::string("pmu.interval.cycles.") + cycleCatKey(cat);
            reg.setInt(path,
                       static_cast<int64_t>(pmu.sampledCycles(cat)));
            reg.declareSum(std::string("pmu-interval-cycles-") +
                               cycleCatKey(cat),
                           path,
                           std::string("sim.cycles.") + cycleCatKey(cat));
        }
        // Sampled counters whose lifetime totals exist under sim.*.
        const struct
        {
            PmuCounter ctr;
            const char *total;
        } kCounterTotals[] = {
            {kPmuL1dMisses, "sim.mem.l1d_misses"},
            {kPmuL1iMisses, "sim.mem.l1i_misses"},
            {kPmuL2Misses, "sim.mem.l2_misses"},
            {kPmuL2iMisses, "sim.mem.l2i_misses"},
            {kPmuL3Misses, "sim.mem.l3_misses"},
            {kPmuDtlbMisses, "sim.mem.dtlb_misses"},
            {kPmuBranchPredictions, "sim.branch.predictions"},
            {kPmuMispredictions, "sim.branch.mispredictions"},
            {kPmuRseSpillRegs, "sim.rse.spill_regs"},
            {kPmuRseFillRegs, "sim.rse.fill_regs"},
            {kPmuStlfConflicts, "sim.mem.stlf_conflicts"},
            {kPmuUsefulOps, "sim.ops.useful"},
        };
        for (const auto &ct : kCounterTotals) {
            const std::string path =
                std::string("pmu.interval.counter.") +
                pmuCounterKey(ct.ctr);
            reg.setInt(path,
                       static_cast<int64_t>(pmu.sampledCounter(ct.ctr)));
            reg.declareSum(std::string("pmu-counter-") +
                               pmuCounterKey(ct.ctr),
                           path, ct.total);
        }
        reg.setInt("pmu.interval.samples",
                   static_cast<int64_t>(pmu.samples().size()));
        reg.setInt("pmu.interval.stride",
                   static_cast<int64_t>(pmu.stride()));
        reg.setInt("pmu.interval.compactions",
                   static_cast<int64_t>(pmu.compactions()));
    }

    if (pmu.options().ear_latency_min != 0) {
        reg.setInt("pmu.ear.dear_events",
                   static_cast<int64_t>(pmu.dearEvents()));
        reg.setInt("pmu.ear.dear_sites",
                   static_cast<int64_t>(pmu.dearSites().size()));
        reg.setInt("pmu.ear.iear_events",
                   static_cast<int64_t>(pmu.iearEvents()));
        reg.setInt("pmu.ear.iear_sites",
                   static_cast<int64_t>(pmu.iearSites().size()));
    }

    if (pmu.options().btb_depth != 0) {
        int64_t preds = 0, mispreds = 0;
        for (const auto &[paddr, site] : pmu.branchProfile()) {
            (void)paddr;
            preds += static_cast<int64_t>(site.predictions);
            mispreds += static_cast<int64_t>(site.mispredictions);
        }
        reg.setInt("pmu.branch_profile.sites",
                   static_cast<int64_t>(pmu.branchProfile().size()));
        reg.setInt("pmu.branch_profile.predictions", preds);
        reg.setInt("pmu.branch_profile.mispredictions", mispreds);
        reg.setInt("pmu.btb.records",
                   static_cast<int64_t>(pmu.branchRecords()));
        reg.declareSum("pmu-branch-predictions",
                       "pmu.branch_profile.predictions",
                       "sim.branch.predictions");
        reg.declareSum("pmu-branch-mispredictions",
                       "pmu.branch_profile.mispredictions",
                       "sim.branch.mispredictions");
    }

    if (pmu.options().regions) {
        reg.setInt("pmu.region.count",
                   static_cast<int64_t>(pmu.regions().size()));
        std::array<int64_t, Perfmon::kNumCats> totals{};
        for (const auto &[key, cyc] : pmu.regions()) {
            (void)key;
            for (int c = 0; c < Perfmon::kNumCats; ++c)
                totals[c] += static_cast<int64_t>(cyc[c]);
        }
        for (int c = 0; c < Perfmon::kNumCats; ++c) {
            const CycleCat cat = static_cast<CycleCat>(c);
            const std::string path =
                std::string("pmu.region.cycles.") + cycleCatKey(cat);
            reg.setInt(path, totals[c]);
            reg.declareSum(std::string("pmu-region-cycles-") +
                               cycleCatKey(cat),
                           path,
                           std::string("sim.cycles.") + cycleCatKey(cat));
        }
    }
}

void
recordSampled(StatsRegistry &reg, const SampledStats &s)
{
    // Registered only for sampled runs (a run option). The estimates
    // live under their own
    // sim.sampled.est.* namespace — deliberately NOT under sim.cycles.*
    // — so no consumer can mistake an extrapolation for a measured
    // total; the declared invariant checks the estimate's internal
    // cross-foot (sum of per-category estimates == est_total).
    if (!s.enabled)
        return;
    reg.setInt("sim.sampled.windows", static_cast<int64_t>(s.windows));
    reg.setInt("sim.sampled.head_ops",
               static_cast<int64_t>(s.head_ops));
    reg.setInt("sim.sampled.detail_ops",
               static_cast<int64_t>(s.detail_ops));
    reg.setInt("sim.sampled.total_ops",
               static_cast<int64_t>(s.total_ops));
    reg.setInt("sim.sampled.detail_cycles",
               static_cast<int64_t>(s.detail_cycles));
    for (int c = 0; c < Perfmon::kNumCats; ++c)
        reg.setInt(std::string("sim.sampled.est.") +
                       cycleCatKey(static_cast<CycleCat>(c)),
                   static_cast<int64_t>(s.est_cycles[c]));
    reg.setInt("sim.sampled.est_total",
               static_cast<int64_t>(s.est_total));
    reg.declareSum("sampled-est-cycles-sum", "sim.sampled.est.",
                   "sim.sampled.est_total");
}

void
recordCompile(StatsRegistry &reg, const CompileStats &stats,
              const PipelineStats &pipe, int instrs_source,
              int instrs_final, bool clean)
{
    reg.setInt("compile.instrs_source", instrs_source);
    reg.setInt("compile.instrs_final", instrs_final);
    reg.setInt("compile.instrs_after_classical",
               stats.instrs_after_classical);
    reg.setInt("compile.instrs_after_regions",
               stats.instrs_after_regions);

    reg.setInt("compile.inline.inlined", stats.inl.inlined);
    reg.setInt("compile.inline.promoted_icalls", stats.inl.promoted);
    reg.setInt("compile.classical.folded", stats.classical.folded);
    reg.setInt("compile.classical.dce_removed",
               stats.classical.dce_removed);
    reg.setInt("compile.classical.licm_moved",
               stats.classical.licm_moved);
    reg.setInt("compile.superblock.traces", stats.sb.traces);
    reg.setInt("compile.superblock.tail_dup_instrs",
               stats.sb.tail_dup_instrs);
    reg.setInt("compile.hyperblock.regions", stats.hb.regions);
    reg.setInt("compile.hyperblock.instrs_predicated",
               stats.hb.instrs_predicated);
    reg.setInt("compile.peel.peeled", stats.peel.peeled);
    reg.setInt("compile.peel.unrolled", stats.peel.unrolled);
    reg.setInt("compile.spec.moved", stats.spec.moved);
    reg.setInt("compile.spec.promoted", stats.spec.promoted);
    reg.setInt("compile.spec.spec_loads", stats.spec.spec_loads);
    reg.setInt("compile.spec.advanced", stats.spec.advanced);
    reg.setInt("compile.spec.checks", stats.spec.checks);
    reg.setInt("compile.regalloc.gr_used", stats.ra.gr_used);
    reg.setInt("compile.regalloc.spilled", stats.ra.spilled);
    reg.setInt("compile.sched.groups", stats.sched.groups);
    reg.setInt("compile.sched.nops", stats.sched.nops);

    int64_t ana_hits = 0, ana_misses = 0, ana_invals = 0;
    for (const PassStat &s : pipe.passes) {
        const std::string base = "compile.pass." + pathComponent(s.pass) +
                                 "." + configName(s.rung);
        reg.setInt(base + ".runs", s.runs);
        reg.setInt(base + ".instr_delta", s.instr_delta);
        reg.setFloat(base + ".run_ms", s.run_ms, kStatVolatile);
        reg.setFloat(base + ".verify_ms", s.verify_ms, kStatVolatile);
        // Analysis-cache activity per pass x kind; quiet kinds are
        // omitted to keep the artifact from ballooning. Deterministic
        // (hit/miss accounting is mode-invariant by design).
        for (int k = 0; k < kNumAnalysisKinds; ++k) {
            const int64_t h = s.analysis.hits[k];
            const int64_t m = s.analysis.misses[k];
            const int64_t inv = s.analysis.invalidations[k];
            ana_hits += h;
            ana_misses += m;
            ana_invals += inv;
            if (!h && !m && !inv)
                continue;
            const std::string kbase =
                base + ".analysis." +
                analysisKindName(static_cast<AnalysisKind>(k));
            reg.setInt(kbase + ".hits", h);
            reg.setInt(kbase + ".misses", m);
            reg.setInt(kbase + ".invalidations", inv);
        }
    }
    reg.setInt("compile.analysis.hits", ana_hits);
    reg.setInt("compile.analysis.misses", ana_misses);
    reg.setInt("compile.analysis.invalidations", ana_invals);

    // Arena activity of the committed per-function compilations.
    // Per-arena counters merged in function-id order, hence --jobs
    // invariant like every other key here (DESIGN.md §16).
    reg.setInt("compile.arena.bytes_allocated",
               static_cast<int64_t>(stats.arena.bytes_allocated));
    reg.setInt("compile.arena.chunks",
               static_cast<int64_t>(stats.arena.chunks));
    reg.setInt("compile.arena.rollbacks",
               static_cast<int64_t>(stats.arena.rollbacks));
    reg.setInt("compile.arena.bytes_reclaimed",
               static_cast<int64_t>(stats.arena.bytes_reclaimed));

    // In a clean compilation (no abandoned rungs) the per-pass deltas,
    // inline included, account for every instruction of source→final.
    // Abandoned attempts legitimately break the sum (their deltas died
    // with the rolled-back clone), so the invariant is only declared
    // when the firewall reports a clean run.
    if (clean) {
        reg.setInt("compile.instr_delta_total",
                   static_cast<int64_t>(instrs_final) - instrs_source);
        reg.declareSum("pass-deltas-sum", "compile.pass.",
                       "compile.instr_delta_total", ".instr_delta");
    }
}

void
recordFallback(StatsRegistry &reg, const FallbackReport &fb)
{
    reg.setInt("firewall.functions_total", fb.functions_total);
    reg.setInt("firewall.functions_degraded", fb.functions_degraded);
    reg.setInt("firewall.clean_retries", fb.clean_retries);
    reg.setInt("firewall.faults.injected", fb.faults_injected);
    reg.setInt("firewall.faults.caught", fb.faults_caught);

    for (int c = 0; c <= static_cast<int>(Config::IlpCsDs); ++c)
        reg.setInt(std::string("firewall.fallback_rung.") +
                       configName(static_cast<Config>(c)),
                   0);
    for (const FallbackEvent &e : fb.events)
        reg.addInt(std::string("firewall.fallback_rung.") +
                       configName(e.attempted),
                   1);
    reg.setInt("firewall.fallbacks_total",
               static_cast<int64_t>(fb.events.size()));
    reg.declareSum("fallback-rung-sum", "firewall.fallback_rung.",
                   "firewall.fallbacks_total");
}

void
recordSupervision(StatsRegistry &reg, const ConfigRun &r)
{
    // An unsupervised run is one detailed attempt, so a supervised
    // clean run records the same values — which is what lets a resumed
    // chaos run diff clean against an unsupervised reference.
    reg.setInt("supervision.attempts", r.sim_attempts);
    reg.setInt("supervision.status", static_cast<int>(r.sim_status));
    for (const char *rung : {"detailed", "functional", "skipped"})
        reg.setInt(std::string("supervision.rung.") + rung,
                   std::strcmp(r.sim_rung, rung) == 0 ? 1 : 0);
}

StatsRegistry
buildRunRegistry(const ConfigRun &r)
{
    StatsRegistry reg;
    if (r.ok) {
        recordPerfmon(reg, r.pm);
        if (r.pmu)
            recordPmu(reg, *r.pmu);
        recordSampled(reg, r.sampled);
    }
    recordCompile(reg, r.stats, r.pipeline, r.instrs_source,
                  r.instrs_final, r.fallback.clean());
    recordFallback(reg, r.fallback);
    recordSupervision(reg, r);
    return reg;
}

std::string
runRecordJson(const std::string &workload, int64_t source_checksum,
              const ConfigRun &r)
{
    StatsRegistry reg = buildRunRegistry(r);
    std::ostringstream os;
    os << "{\"schema\":\"" << kRunSchemaVersion << "\",\"workload\":\""
       << jsonEscape(workload) << "\",\"config\":\""
       << configName(r.config) << "\",\"ok\":" << (r.ok ? "true" : "false")
       << ",\"checksum\":" << r.checksum
       << ",\"source_checksum\":" << source_checksum << ",\"error\":\""
       << jsonEscape(r.error) << "\",\"stats\":" << reg.jsonObject()
       << "}";
    return os.str();
}

std::string
suiteArtifact(const std::vector<WorkloadRuns> &suite,
              const std::vector<Config> &configs,
              std::vector<std::string> *violations)
{
    std::ostringstream os;
    for (const WorkloadRuns &runs : suite) {
        for (Config cfg : configs) {
            auto it = runs.by_config.find(cfg);
            if (it == runs.by_config.end())
                continue;
            const ConfigRun &r = it->second;
            if (r.resumed && !r.record_json.empty()) {
                // Crash-safe resume: the record was produced (and its
                // invariants checked) by the interrupted run; emitting
                // it verbatim keeps the resumed artifact byte-identical
                // to an uninterrupted one.
                os << r.record_json << "\n";
                continue;
            }
            os << runRecordJson(runs.name, runs.source_checksum, r)
               << "\n";
            if (violations) {
                StatsRegistry reg = buildRunRegistry(r);
                for (const std::string &v : reg.checkInvariants())
                    violations->push_back(runs.name + " [" +
                                          configName(cfg) + "]: " + v);
            }
        }
    }
    return os.str();
}

std::string
samplesArtifact(const std::vector<WorkloadRuns> &suite,
                const std::vector<Config> &configs,
                std::vector<std::string> *violations)
{
    std::ostringstream os;
    for (const WorkloadRuns &runs : suite) {
        for (Config cfg : configs) {
            auto it = runs.by_config.find(cfg);
            if (it == runs.by_config.end())
                continue;
            const ConfigRun &r = it->second;
            if (!r.ok || !r.pmu || r.pmu->samples().empty())
                continue;
            // Sampled runs must declare their scaling on every line:
            // the interval cycles cover only the detailed windows, and
            // downstream consumers apply scale_num/scale_den themselves
            // (an extrapolated stream must never cross-foot silently).
            // Detailed-mode lines carry no mode key at all.
            std::string mode_tag;
            if (r.sampled.enabled)
                mode_tag = ",\"mode\":\"sampled\",\"scale_num\":" +
                           std::to_string(r.sampled.total_ops) +
                           ",\"scale_den\":" +
                           std::to_string(r.sampled.detail_ops);
            int64_t seq = 0;
            for (const PmuSample &s : r.pmu->samples()) {
                os << "{\"schema\":\"" << kSamplesSchemaVersion
                   << "\",\"workload\":\"" << jsonEscape(runs.name)
                   << "\",\"config\":\"" << configName(cfg) << '"'
                   << mode_tag << ",\"seq\":" << seq++
                   << ",\"cycles_end\":" << s.cycles_end
                   << ",\"intervals\":" << s.intervals << ",\"cycles\":{";
                for (int c = 0; c < Perfmon::kNumCats; ++c) {
                    if (c)
                        os << ',';
                    os << '"' << cycleCatKey(static_cast<CycleCat>(c))
                       << "\":" << s.cycles[c];
                }
                os << "},\"counters\":{";
                for (int c = 0; c < kNumPmuCounters; ++c) {
                    if (c)
                        os << ',';
                    os << '"' << pmuCounterKey(c) << "\":" << s.counters[c];
                }
                os << "}}\n";
            }
            if (violations) {
                for (const std::string &v :
                     r.pmu->checkReconciliation(r.pm))
                    violations->push_back(runs.name + " [" +
                                          configName(cfg) + "]: " + v);
            }
        }
    }
    return os.str();
}

bool
writeSamplesArtifact(const std::string &path,
                     const std::vector<WorkloadRuns> &suite,
                     const std::vector<Config> &configs)
{
    std::vector<std::string> violations;
    const std::string doc = samplesArtifact(suite, configs, &violations);
    atomicWriteFileOrDie(path, doc);
    for (const std::string &v : violations)
        epic_warn("telemetry ", v);
    return violations.empty();
}

} // namespace epic
