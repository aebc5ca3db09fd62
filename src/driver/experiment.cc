#include "driver/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <tuple>

#include "support/faultinject.h"
#include "support/logging.h"
#include "support/supervision/manifest.h"
#include "support/telemetry/artifact.h"
#include "support/telemetry/trace.h"
#include "support/threadpool.h"

namespace epic {

const std::vector<Config> &
standardConfigs()
{
    static const std::vector<Config> kConfigs = {
        Config::Gcc, Config::ONS, Config::IlpNs, Config::IlpCs};
    return kConfigs;
}

namespace {

/** RAII arm/disarm for the per-task deadline poll. */
struct SupervisionScope
{
    explicit SupervisionScope(bool on) : on_(on)
    {
        if (on_)
            armSupervision();
    }
    ~SupervisionScope()
    {
        if (on_)
            disarmSupervision();
    }
    SupervisionScope(const SupervisionScope &) = delete;
    SupervisionScope &operator=(const SupervisionScope &) = delete;
    bool on_;
};

/** A stop request observable at this poll site? */
bool
stopped()
{
    return supervisionActive() && stopRequested();
}

/**
 * Manifest key for one (workload x config) task: human-readable prefix
 * plus a fingerprint of everything that determines the record bytes —
 * the workload's content signature, the configuration, the input/spec
 * model choices and the artifact schema version. A record is only
 * reused when all of them match.
 */
std::string
manifestKey(const Workload &w, Config cfg, const RunOptions &o)
{
    uint64_t h = fnv1a(kRunSchemaVersion);
    h = fnv1a(w.signature, h);
    h = fnv1a(o.spec_model == SpecModel::Sentinel ? "sentinel"
                                                  : "general",
              h);
    h = fnv1a(std::to_string(static_cast<int>(o.profile_input)), h);
    h = fnv1a(std::to_string(static_cast<int>(o.run_input)), h);
    if (o.pmu.enabled()) {
        // PMU configuration changes the record bytes (pmu.* keys), so
        // sampled and unsampled fleets never reuse each other's records.
        h = fnv1a("pmu:" + std::to_string(o.pmu.sample_every) + "," +
                      std::to_string(o.pmu.ear_latency_min) + "," +
                      std::to_string(o.pmu.btb_depth) + "," +
                      std::to_string(o.pmu.regions ? 1 : 0),
                  h);
    }
    if (o.sim_mode == SimMode::Sampled) {
        // Sampled runs extrapolate (different record bytes): never let
        // a resumed fleet reuse a detailed record or vice versa.
        h = fnv1a("sampled:" + std::to_string(o.ff_functional) + "," +
                      std::to_string(o.detail_window),
                  h);
    }
    if (o.alat_entries || o.alat_assoc) {
        // ALAT geometry changes recovery-cycle record bytes.
        h = fnv1a("alat:" + std::to_string(o.alat_entries.value_or(-1)) +
                      "," + std::to_string(o.alat_assoc.value_or(-1)),
                  h);
    }
    return w.name + "|" + std::string(configName(cfg)) + "|" +
           hashHex(h);
}

/** Did a stored manifest record complete successfully? */
bool
recordSaysOk(const std::string &rec)
{
    return rec.find("\"ok\":true") != std::string::npos;
}

/** Architected checksum carried by a stored manifest record. */
int64_t
recordChecksum(const std::string &rec)
{
    static const char *const kTag = "\"checksum\":";
    const size_t p = rec.find(kTag);
    if (p == std::string::npos)
        return 0;
    return std::strtoll(rec.c_str() + p + std::strlen(kTag), nullptr,
                        10);
}

/** Fresh memory image of `prog` holding the workload's `input`. */
void
buildImage(const Workload &w, const Program &prog, Memory &mem,
           InputKind input)
{
    mem.initFromProgram(prog);
    w.write_input(prog, mem, input);
}

/**
 * Simulation of a compiled program under opts.supervision: budgets +
 * deadline, validation-aware bounded retry of the detailed sim (a
 * result that disagrees with `source_checksum` is Faulted), then the
 * degradation ladder (functional-only, then skip-with-record) —
 * mirroring the compile firewall's rung discipline at the sim layer.
 * An unsupervised run is one unvalidated attempt with no budget and no
 * ladder.
 */
void
runSim(const Workload &w, Config cfg, const RunOptions &opts,
       int64_t source_checksum, Program &prog, ConfigRun &out)
{
    SupervisionOptions sup;
    sup.max_attempts = 1;
    sup.ladder = false;
    if (opts.supervise)
        sup = opts.supervision;
    SupervisionScope scope(sup.deadline_ms > 0);

    TimingOptions base;
    base.spec_model = opts.spec_model;
    if (sup.max_cycles)
        base.max_cycles = sup.max_cycles;
    if (sup.max_depth)
        base.max_depth = sup.max_depth;
    base.max_mem_pages = sup.max_mem_pages;
    base.pmu = opts.pmu;
    base.sim_mode = opts.sim_mode;
    base.ff_functional = opts.ff_functional;
    base.detail_window = opts.detail_window;
    if (opts.alat_entries)
        base.mach.alat_entries = *opts.alat_entries;
    if (opts.alat_assoc)
        base.mach.alat_assoc = *opts.alat_assoc;

    // Sim-layer chaos: the plan (and whether it fires) is a pure
    // function of (seed, workload, rung); it corrupts the *first*
    // attempt only — all three kinds model transient faults.
    SimFaultPlan plan;
    if (opts.sim_inject && opts.supervise)
        plan = opts.sim_inject->simPlan(w.name, configName(cfg));

    const int max_attempts = std::max(1, sup.max_attempts);
    TimingResult r;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        Memory mem;
        buildImage(w, prog, mem, opts.run_input);
        TimingOptions topts = base;
        topts.deadline_ns = deadlineFromNowMs(sup.deadline_ms);
        if (attempt == 0 && plan.fire) {
            switch (plan.kind) {
              case FaultKind::SimDecodeCorrupt:
                topts.corrupt_decode = true;
                break;
              case FaultKind::SimMemBitFlip:
                mem.flipBit(plan.mem_bit_sel);
                break;
              case FaultKind::SimAlatCorrupt:
                topts.corrupt_alat = plan.alat_corrupt;
                break;
              default: // SimHang
                topts.hang_at_instr = plan.hang_at_instr;
                topts.hang_ms = plan.hang_ms;
                break;
            }
        }
        r = simulate(prog, mem, topts);
        out.sim_attempts = attempt + 1;
        // Validation-aware retry: a detailed sim that "succeeds" with
        // the wrong architected result is a silent fault.
        if (r.ok && opts.supervise && r.ret_value != source_checksum)
            r.fail(RunStatus::Faulted,
                   "checksum mismatch (" + std::to_string(r.ret_value) +
                       " vs " + std::to_string(source_checksum) + ")");
        if (r.ok || stopped())
            break;
        if (r.status == RunStatus::BudgetExceeded)
            break; // deterministic exhaustion: a retry cannot help
    }
    if (r.ok) {
        out.ok = true;
        out.checksum = r.ret_value;
        out.pm = std::move(r.pm);
        out.pmu = std::move(r.pmu);
        out.sampled = r.sampled;
        out.sim_status = RunStatus::Ok;
    } else if (sup.ladder && !stopped()) {
        // Rung 2: functional-only. Execute the compiled program in
        // scheduled order through the interpreter — architected result
        // (checksum) without the timing model that failed.
        Memory mem;
        buildImage(w, prog, mem, opts.run_input);
        InterpOptions io;
        io.scheduled_order = true;
        if (sup.max_instrs)
            io.max_instrs = sup.max_instrs;
        if (sup.max_depth)
            io.max_depth = sup.max_depth;
        io.max_mem_pages = sup.max_mem_pages;
        io.deadline_ns = deadlineFromNowMs(sup.deadline_ms);
        auto fr = interpret(prog, mem, io);
        if (fr.ok) {
            out.ok = true;
            out.checksum = fr.ret_value;
            out.pm = Perfmon{};
            out.sim_rung = "functional";
            out.sim_status = RunStatus::Ok;
            out.error = std::string(configName(cfg)) +
                        " detailed sim quarantined after " +
                        std::to_string(out.sim_attempts) +
                        " attempt(s): " + r.error +
                        " (functional-only result)";
        } else {
            // Rung 3: skip with a structured record.
            out.ok = false;
            out.sim_rung = "skipped";
            out.sim_status = fr.status;
            out.error = std::string(configName(cfg)) +
                        " quarantined after " +
                        std::to_string(out.sim_attempts) +
                        " attempt(s): detailed (" + r.error +
                        "); functional (" + fr.error + ")";
        }
    } else {
        out.ok = false;
        out.sim_status = r.status;
        out.error = std::string(configName(cfg)) +
                    " simulation failed: " + r.error;
    }

    // Containment accounting for the injected fault: caught when the
    // supervisor *detected* it (retry/degrade/structured failure) or
    // validation proves the accepted result correct anyway. A fault
    // that yields an accepted wrong result would stay uncaught —
    // escaped — which is exactly what the chaos suite asserts against.
    if (plan.record >= 0) {
        const bool detected = out.sim_attempts > 1 ||
                              std::strcmp(out.sim_rung, "detailed") !=
                                  0 ||
                              !out.ok;
        const bool proven = out.ok && out.checksum == source_checksum;
        if (detected || proven)
            opts.sim_inject->markCaught(plan.record);
    }
}

/** Compile a profiled source under one configuration and simulate it. */
ConfigRun
compileAndRun(const Workload &w, Config cfg, const Program &src,
              const RunOptions &opts, int64_t source_checksum)
{
    ConfigRun out;
    out.config = cfg;

    // Coarse experiment phases for the trace timeline ("" = tracing
    // off; composing the label is then skipped too).
    auto phase_label = [&](const char *phase) -> std::string {
        if (!TraceRecorder::global().enabled())
            return {};
        return std::string(phase) + " " + w.name + " [" +
               configName(cfg) + "]";
    };
    TraceSpan run_span("experiment", phase_label("run"));

    CompileOptions copts = CompileOptions::forConfig(cfg);
    copts.jobs = opts.jobs;
    // --max-mem-pages covers compile-side arenas like sim heap pages.
    copts.max_arena_pages = opts.supervision.max_mem_pages;
    if (opts.tweak)
        opts.tweak(copts);
    Compiled c;
    try {
        c = compileProgram(src, copts);
    } catch (const ArenaBudgetExceeded &e) {
        out.ok = false;
        out.sim_status = RunStatus::BudgetExceeded;
        out.error = std::string(configName(cfg)) +
                    " compilation exceeded the arena budget: " + e.what();
        return out;
    }

    out.fallback = c.fallback;
    out.stats = c.stats;
    out.pipeline = c.pipeline;
    out.instrs_source = c.instrs_source;
    out.instrs_final = c.instrs_final;

    TraceSpan sim_span("experiment.phase", phase_label("simulate"));
    runSim(w, cfg, opts, source_checksum, *c.prog, out);
    out.prog = std::shared_ptr<Program>(std::move(c.prog));
    return out;
}

/**
 * A plan's source-truth run of (workload, run input) or build + profile
 * run of (workload, profile input), shared by every entry with that key.
 * Tasks share `profiled` uncopied: compileProgram only clones its source.
 */
struct Prep
{
    const Workload *w = nullptr;
    InputKind input = InputKind::Ref;
    bool profile = false;
    bool needed = false; ///< a source run, or some task not resumed
    int64_t checksum = 0;
    std::unique_ptr<Program> profiled;
    std::string error;   ///< non-empty: the run failed or was stopped
    bool failed = false; ///< a failed source run (warned at merge)
    std::atomic<int> pending{0}; ///< tasks reading `profiled`; last frees it
};

void
prepare(Prep &p)
{
    if (!p.needed)
        return;
    if (stopped()) {
        p.error = "interrupted by stop request";
        return;
    }
    TraceSpan span("experiment.phase",
                   TraceRecorder::global().enabled()
                       ? (p.profile ? "build+profile " : "source-run ") +
                             p.w->name
                       : std::string());
    auto prog = p.w->build();
    prog->layoutData();
    Memory mem;
    buildImage(*p.w, *prog, mem, p.input);
    if (p.profile) {
        auto r = profileRun(*prog, mem);
        if (r.ok)
            p.profiled = std::move(prog);
        else
            p.error = "profile run failed: " + r.error;
        return;
    }
    auto r = interpret(*prog, mem);
    if (r.ok) {
        p.checksum = r.ret_value;
    } else {
        // Recoverable: the workload is reported as failed instead of
        // killing the whole plan.
        p.error = "source program failed: " + r.error;
        p.failed = true;
    }
}

/** One (variant x workload) share of a plan. */
struct Entry
{
    size_t variant = 0;
    const Workload *w = nullptr;
    const RunOptions *opts = nullptr;
    Prep *source = nullptr;
    Prep *profile = nullptr;
    std::vector<ConfigRun> results; ///< one slot per configuration
    std::atomic<int> pending{0};    ///< configuration tasks still running
};

/**
 * One (variant x workload x config) task. Compiles the shared profiled
 * program and simulates it, then appends the durable manifest record.
 */
void
runTask(Entry &e, size_t i)
{
    ConfigRun &r = e.results[i];
    const Prep &p = *e.profile;
    if (!r.resumed && stopped()) {
        r.sim_status = RunStatus::Deadline;
        r.error = "interrupted by stop request";
    } else if (!r.resumed) {
        if (p.profiled) {
            r = compileAndRun(*e.w, r.config, *p.profiled, *e.opts,
                              e.source->checksum);
        } else {
            r.sim_status = RunStatus::Faulted;
            r.error = p.error;
        }
        // Durable completion record — appended (and fsync'd) the moment
        // the task finishes, so a later kill -9 cannot lose it. Results
        // produced after a stop request are not recorded: they may be
        // partial (Deadline) and will simply re-run on resume.
        if (e.opts->manifest && (r.ok || !stopped()))
            e.opts->manifest->record(
                manifestKey(*e.w, r.config, *e.opts),
                runRecordJson(e.w->name, e.source->checksum, r));
    }
    if (--e.profile->pending == 0)
        e.profile->profiled.reset();
}

/**
 * After an entry's tasks finished: fold its results in `configs` order
 * and emit its warnings, so aggregates and the warning stream never
 * depend on the schedule.
 */
WorkloadRuns
merge(Entry &e)
{
    WorkloadRuns out;
    out.name = e.w->name;
    out.source_checksum = e.source->checksum;
    out.error = e.source->error;
    if (e.source->failed)
        epic_warn(out.name, ": ", out.error);
    if (!out.error.empty())
        return out;
    out.all_match = true;
    for (ConfigRun &r : e.results) {
        const Config cfg = r.config;
        out.fallback.merge(r.fallback);
        out.pipeline.merge(r.pipeline);
        if (!r.ok) {
            epic_warn(out.name, " [", configName(cfg), "]: ", r.error);
            out.all_match = false;
        } else if (r.checksum != out.source_checksum) {
            epic_warn(out.name, " [", configName(cfg),
                      "]: checksum mismatch (", r.checksum, " vs ",
                      out.source_checksum, ")");
            out.all_match = false;
        }
        out.by_config.emplace(cfg, std::move(r));
    }
    return out;
}

/** runPlan over explicit workload lists, one per variant. */
std::vector<std::vector<WorkloadRuns>>
runPlanOn(const std::vector<RunVariant> &variants,
          const std::vector<std::vector<const Workload *>> &suites,
          const PlanProgress &progress)
{
    // Plan order: variant-major, each variant's workloads in order.
    std::deque<Entry> entries;
    std::deque<Prep> preps;
    std::map<std::tuple<const Workload *, InputKind, bool>, Prep *> prep_of;
    auto prep = [&](const Workload *w, InputKind input, bool profile) {
        Prep *&p = prep_of[{w, input, profile}];
        if (!p) {
            p = &preps.emplace_back();
            p->w = w;
            p->input = input;
            p->profile = profile;
            p->needed = !profile;
        }
        return p;
    };
    int jobs = 1;
    for (size_t v = 0; v < variants.size(); ++v) {
        const RunOptions &opts = variants[v].opts;
        const std::vector<Config> &configs = variants[v].configs;
        jobs = std::max(jobs, opts.jobs);
        for (const Workload *w : suites[v]) {
            Entry &e = entries.emplace_back();
            e.variant = v;
            e.w = w;
            e.opts = &opts;
            e.source = prep(w, opts.run_input, false);
            e.profile = prep(w, opts.profile_input, true);
            // Records a resumed manifest already holds are reused; every
            // other configuration needs the profile run.
            e.results.resize(configs.size());
            for (size_t i = 0; i < configs.size(); ++i) {
                ConfigRun &r = e.results[i];
                r.config = configs[i];
                const std::string *rec =
                    opts.manifest && opts.resume
                        ? opts.manifest->find(manifestKey(*w, configs[i], opts))
                        : nullptr;
                if (!rec) {
                    e.profile->needed = true;
                    continue;
                }
                r.resumed = true;
                r.record_json = *rec;
                r.ok = recordSaysOk(*rec);
                r.checksum = recordChecksum(*rec);
                if (!r.ok)
                    r.error =
                        "failed in a previous run (resumed manifest record)";
            }
        }
    }

    // Phase 1: every source run and every needed profile run, once.
    parallelFor(jobs, static_cast<int>(preps.size()),
                [&](int i) { prepare(preps[i]); });

    // Phase 2: one flat schedule of every task, in plan order, so the
    // pool stays busy across workload and variant boundaries.
    std::vector<std::pair<Entry *, size_t>> tasks;
    for (Entry &e : entries) {
        if (!e.source->error.empty())
            continue;
        e.pending = static_cast<int>(e.results.size());
        e.profile->pending += e.pending;
        for (size_t c = 0; c < e.results.size(); ++c)
            tasks.emplace_back(&e, c);
    }
    for (Prep &p : preps)
        if (p.pending == 0)
            p.profiled.reset();

    // Merge the finished prefix of the plan as soon as it grows, so
    // warnings and `progress` come in plan order at any jobs value.
    // A variant's last merge flushes the warn-repeat counters: each
    // variant's warnings stand alone, as from its own runSuite call.
    std::vector<std::vector<WorkloadRuns>> out(variants.size());
    std::mutex mu;
    size_t merged = 0;
    auto merge_ready = [&] {
        std::lock_guard<std::mutex> lock(mu);
        for (; merged < entries.size() && entries[merged].pending == 0;
             ++merged) {
            Entry &e = entries[merged];
            out[e.variant].push_back(merge(e));
            if (progress)
                progress(e.variant, out[e.variant].back());
            if (merged + 1 == entries.size() ||
                entries[merged + 1].variant != e.variant)
                flushSuppressedWarnings();
        }
    };
    merge_ready();
    parallelFor(jobs, static_cast<int>(tasks.size()), [&](int t) {
        Entry &e = *tasks[t].first;
        runTask(e, tasks[t].second);
        if (--e.pending == 0)
            merge_ready();
    });
    return out;
}

} // namespace

std::vector<std::vector<WorkloadRuns>>
runPlan(const std::vector<RunVariant> &variants,
        const PlanProgress &progress)
{
    std::vector<std::vector<const Workload *>> suites;
    for (const RunVariant &v : variants)
        suites.push_back(matchWorkloads(v.opts.only));
    return runPlanOn(variants, suites, progress);
}

WorkloadRuns
runWorkload(const Workload &w, const std::vector<Config> &configs,
            const RunOptions &opts)
{
    return std::move(runPlanOn({{configs, opts}}, {{&w}}, {})[0][0]);
}

std::vector<WorkloadRuns>
runSuite(const std::vector<Config> &configs, const RunOptions &opts,
         const std::function<void(const WorkloadRuns &)> &progress)
{
    PlanProgress each;
    if (progress)
        each = [&](size_t, WorkloadRuns &r) { progress(r); };
    return std::move(runPlan({{configs, opts}}, each)[0]);
}

} // namespace epic
