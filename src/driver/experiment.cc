#include "driver/experiment.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "sim/checkpoint.h"
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

/** Trace label "<phase> <workload>" ("" when tracing is off). */
std::string
phaseLabel(const char *phase, const Workload &w)
{
    if (!TraceRecorder::global().enabled())
        return {};
    return std::string(phase) + " " + w.name;
}

/** Build + profile a fresh source program for a workload. */
std::unique_ptr<Program>
buildProfiled(const Workload &w, const RunOptions &opts,
              std::string *error)
{
    TraceSpan span("experiment.phase", phaseLabel("build+profile", w));
    auto prog = w.build();
    prog->layoutData();
    Memory mem;
    mem.initFromProgram(*prog);
    w.write_input(*prog, mem, opts.profile_input);
    auto prof = profileRun(*prog, mem);
    if (!prof.ok) {
        *error = "profile run failed: " + prof.error;
        return nullptr;
    }
    return prog;
}

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

/** Fresh input image for the compiled program. */
void
buildImage(const Workload &w, const Program &prog, Memory &mem,
           const RunOptions &opts)
{
    mem.initFromProgram(prog);
    w.write_input(const_cast<Program &>(prog), mem, opts.run_input);
}

/**
 * Supervised simulation of a compiled program: budgets + deadline,
 * validation-aware bounded retry of the detailed sim, then the
 * degradation ladder (functional-only, then skip-with-record) —
 * mirroring the compile firewall's rung discipline at the sim layer.
 */
void
superviseSim(const Workload &w, Config cfg, const RunOptions &opts,
             Program &prog, ConfigRun &out)
{
    const SupervisionOptions &sup = opts.supervision;
    SupervisionScope scope(sup.deadline_ms > 0);

    TimingOptions base;
    base.spec_model = opts.spec_model;
    if (sup.max_cycles)
        base.max_cycles = sup.max_cycles;
    if (sup.max_depth)
        base.max_depth = sup.max_depth;
    base.max_mem_pages = sup.max_mem_pages;
    base.checkpoint_every = sup.checkpoint_every;
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
    if (opts.sim_inject)
        plan = opts.sim_inject->simPlan(w.name, configName(cfg));

    const int max_attempts = std::max(1, sup.max_attempts);
    TimingResult r;
    SimCheckpoint ckpt;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        Memory mem;
        buildImage(w, prog, mem, opts);
        TimingOptions topts = base;
        topts.deadline_ns = deadlineFromNowMs(sup.deadline_ms);
        if (sup.checkpoint_every)
            topts.checkpoint_out = &ckpt;
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
        if (r.ok && opts.expected_checksum &&
            r.ret_value != *opts.expected_checksum)
            r.fail(RunStatus::Faulted,
                   "checksum mismatch (" + std::to_string(r.ret_value) +
                       " vs " +
                       std::to_string(*opts.expected_checksum) + ")");
        if (r.ok || stopped())
            break;
        if (r.status == RunStatus::BudgetExceeded)
            break; // deterministic exhaustion: a retry cannot help
    }
    if (ckpt.valid()) {
        out.ckpt_instrs = ckpt.instrs;
        out.ckpt_bytes = ckpt.data.size();
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
        buildImage(w, prog, mem, opts);
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
        const bool proven = out.ok && opts.expected_checksum &&
                            out.checksum == *opts.expected_checksum;
        if (detected || proven)
            opts.sim_inject->markCaught(plan.record);
    }
}

/** The record of a configuration whose shared profile run failed. */
ConfigRun
profileFailed(Config cfg, const std::string &error)
{
    ConfigRun out;
    out.config = cfg;
    out.error = error;
    out.sim_status = RunStatus::Faulted;
    return out;
}

/** Compile a profiled source under one configuration and simulate it. */
ConfigRun
compileAndRun(const Workload &w, Config cfg, const Program &src,
              const RunOptions &opts)
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
    if (opts.supervise) {
        superviseSim(w, cfg, opts, *c.prog, out);
        out.prog = std::shared_ptr<Program>(std::move(c.prog));
        return out;
    }

    Memory mem;
    mem.initFromProgram(*c.prog);
    w.write_input(*c.prog, mem, opts.run_input);
    TimingOptions topts;
    topts.spec_model = opts.spec_model;
    topts.pmu = opts.pmu;
    topts.sim_mode = opts.sim_mode;
    topts.ff_functional = opts.ff_functional;
    topts.detail_window = opts.detail_window;
    if (opts.alat_entries)
        topts.mach.alat_entries = *opts.alat_entries;
    if (opts.alat_assoc)
        topts.mach.alat_assoc = *opts.alat_assoc;
    auto r = simulate(*c.prog, mem, topts);
    out.sim_attempts = 1;
    if (!r.ok) {
        out.sim_status = r.status;
        out.error = std::string(configName(cfg)) +
                    " simulation failed: " + r.error;
        return out;
    }
    out.ok = true;
    out.checksum = r.ret_value;
    out.pm = std::move(r.pm);
    out.pmu = std::move(r.pmu);
    out.sampled = r.sampled;
    out.prog = std::shared_ptr<Program>(std::move(c.prog));
    return out;
}

/**
 * One workload's share of a run: its source truth, plus the single
 * profiled program that all of its configuration tasks compile from.
 * compileProgram only reads its source (through Program::clone), so
 * concurrent tasks share `profiled` without copying it.
 */
struct Prepared
{
    const Workload *w = nullptr;
    WorkloadRuns runs;          ///< name, source_checksum, error
    bool source_failed = false; ///< runs.error needs a warning
    RunOptions opts;            ///< + expected_checksum when supervised
    std::unique_ptr<Program> profiled;
    std::string profile_error;
    std::vector<ConfigRun> results; ///< one slot per configuration
    /// Configuration tasks still running; the last one to finish
    /// frees `profiled`, so a fleet does not hold every workload's
    /// profiled program until the end.
    std::atomic<int> pending{0};
};

/**
 * Phase 1: the source-truth run, the records a resumed manifest
 * already holds and — when any configuration still has to run — one
 * build + profile run on the profile input.
 */
void
prepare(Prepared &p, const Workload &w, const std::vector<Config> &configs,
        const RunOptions &opts)
{
    p.w = &w;
    p.runs.name = w.name;
    p.opts = opts;
    if (stopped()) {
        p.runs.error = "interrupted by stop request";
        return;
    }

    // Source truth: functional run of the unoptimized program on the
    // measurement input.
    {
        TraceSpan span("experiment.phase", phaseLabel("source-run", w));
        auto prog = w.build();
        prog->layoutData();
        Memory mem;
        mem.initFromProgram(*prog);
        w.write_input(*prog, mem, opts.run_input);
        auto r = interpret(*prog, mem);
        if (!r.ok) {
            // Recoverable: the harness reports the workload as failed
            // instead of killing the whole suite.
            p.runs.error = "source program failed: " + r.error;
            p.source_failed = true;
            return;
        }
        p.runs.source_checksum = r.ret_value;
    }

    // Supervised runs validate every accepted result against the
    // source truth (silent-corruption detection drives retry).
    if (opts.supervise)
        p.opts.expected_checksum = p.runs.source_checksum;

    bool need_profile = false;
    p.results.resize(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        ConfigRun &r = p.results[i];
        r.config = configs[i];
        const std::string *rec =
            opts.manifest && opts.resume
                ? opts.manifest->find(manifestKey(w, configs[i], opts))
                : nullptr;
        if (!rec) {
            need_profile = true;
            continue;
        }
        r.resumed = true;
        r.record_json = *rec;
        r.ok = recordSaysOk(*rec);
        r.checksum = recordChecksum(*rec);
        if (!r.ok)
            r.error = "failed in a previous run (resumed manifest record)";
    }
    if (need_profile)
        p.profiled = buildProfiled(w, opts, &p.profile_error);
    p.pending = static_cast<int>(configs.size());
}

/**
 * Phase 2: one (workload x config) task. Compiles the shared profiled
 * program and simulates it, then appends the durable manifest record.
 */
void
runTask(Prepared &p, size_t i)
{
    ConfigRun &r = p.results[i];
    if (!r.resumed && stopped()) {
        r.sim_status = RunStatus::Deadline;
        r.error = "interrupted by stop request";
    } else if (!r.resumed) {
        const Config cfg = r.config;
        r = p.profiled ? compileAndRun(*p.w, cfg, *p.profiled, p.opts)
                       : profileFailed(cfg, p.profile_error);
        // Durable completion record — appended (and fsync'd) the moment
        // the task finishes, so a later kill -9 cannot lose it. Results
        // produced after a stop request are not recorded: they may be
        // partial (Deadline) and will simply re-run on resume.
        if (p.opts.manifest && !(stopped() && !r.ok))
            p.opts.manifest->record(
                manifestKey(*p.w, cfg, p.opts),
                runRecordJson(p.w->name, p.runs.source_checksum, r));
    }
    if (--p.pending == 0)
        p.profiled.reset();
}

/**
 * After a workload's tasks finished: fold its results in `configs`
 * order and emit its warnings, so aggregates and the warning stream
 * never depend on the schedule.
 */
WorkloadRuns
merge(Prepared &p)
{
    WorkloadRuns out = std::move(p.runs);
    if (p.source_failed)
        epic_warn(out.name, ": ", out.error);
    if (!out.error.empty())
        return out;
    out.all_match = true;
    for (ConfigRun &r : p.results) {
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

} // namespace

ConfigRun
runConfig(const Workload &w, Config cfg, const RunOptions &opts)
{
    std::string err;
    std::unique_ptr<Program> src = buildProfiled(w, opts, &err);
    return src ? compileAndRun(w, cfg, *src, opts) : profileFailed(cfg, err);
}

WorkloadRuns
runWorkload(const Workload &w, const std::vector<Config> &configs,
            const RunOptions &opts)
{
    Prepared p;
    prepare(p, w, configs, opts);
    parallelFor(opts.jobs, static_cast<int>(p.results.size()),
                [&](int i) { runTask(p, i); });
    return merge(p);
}

std::vector<WorkloadRuns>
runSuite(const std::vector<Config> &configs, const RunOptions &opts,
         const std::function<void(const WorkloadRuns &)> &progress)
{
    const std::vector<const Workload *> suite = matchWorkloads(opts.only);
    const int n = static_cast<int>(suite.size());

    std::vector<Prepared> prep(n);
    parallelFor(opts.jobs, n,
                [&](int i) { prepare(prep[i], *suite[i], configs, opts); });

    // One flat schedule of every (workload x config) task, workload-
    // major, so the pool stays busy across workload boundaries.
    std::vector<std::pair<int, int>> tasks;
    for (int i = 0; i < n; ++i)
        for (size_t c = 0; c < prep[i].results.size(); ++c)
            tasks.emplace_back(i, static_cast<int>(c));

    // Merge in suite order: a serial run merges (and reports) each
    // workload as soon as its last task finished, a parallel run after
    // the join.
    std::vector<WorkloadRuns> out(n);
    int merged = 0;
    auto merge_ready = [&] {
        for (; merged < n && prep[merged].pending == 0; ++merged) {
            out[merged] = merge(prep[merged]);
            if (progress)
                progress(out[merged]);
        }
    };
    const bool serial = opts.jobs <= 1;
    parallelFor(opts.jobs, static_cast<int>(tasks.size()), [&](int t) {
        runTask(prep[tasks[t].first], tasks[t].second);
        if (serial)
            merge_ready();
    });
    merge_ready();
    return out;
}

} // namespace epic
