/**
 * @file
 * Experiment harness shared by every table/figure reproduction: build a
 * workload, profile it once on the train input, compile it under one or
 * more configurations, simulate on the ref input, and validate that
 * every configuration computes the same architected checksum as the
 * source program. Every entry point is one run plan (runPlan).
 */
#ifndef EPIC_DRIVER_EXPERIMENT_H
#define EPIC_DRIVER_EXPERIMENT_H

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "driver/compiler.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "support/supervision/supervise.h"
#include "workloads/workload.h"

namespace epic {

class FaultInjector;
class RunManifest;

/** Options for a workload run. */
struct RunOptions
{
    SpecModel spec_model = SpecModel::General;
    InputKind profile_input = InputKind::Train;
    InputKind run_input = InputKind::Ref;
    /// Worker threads for the plan's task fan-out (a plan uses the
    /// largest of its variants' values) and, via CompileOptions::jobs,
    /// for the per-function compile tier. Results merge in plan order,
    /// so any jobs value produces bit-identical reports to jobs = 1.
    int jobs = 1;
    /// Hook to tweak compile options per configuration (ablations).
    std::function<void(CompileOptions &)> tweak;

    // ---- Run supervision (support/supervision/supervise.h) ----
    /// Arm the supervision layer: budgets/deadline below, validation-
    /// aware bounded retry against the source-truth checksum, and the
    /// sim degradation ladder. Off by default: one detailed attempt,
    /// whose record equals a clean supervised one.
    bool supervise = false;
    SupervisionOptions supervision;
    /// Sim-layer chaos injection (FaultInjector::simPlan); null = off.
    /// Faults are applied to the first attempt only (transient model).
    FaultInjector *sim_inject = nullptr;

    // ---- Crash-safe resumable fleet runs ----
    /// Durable per-run manifest; completed (workload x config) records
    /// are appended as they finish (fsync'd — they survive kill -9).
    RunManifest *manifest = nullptr;
    /// With a manifest: tasks whose key already has a record are not
    /// re-run; the stored record is emitted verbatim in the artifact,
    /// keeping the resumed artifact byte-identical to an uninterrupted
    /// run. The key does not fingerprint `tweak`: a manifest serves
    /// one variant (epiclab_run's, which refuses --resume with the
    /// flags that set `tweak`), not a plan of several.
    bool resume = false;
    /// Workload-name substring filters; empty = the whole suite.
    std::vector<std::string> only;

    // ---- Fidelity mode (sim/timing.h SimMode, DESIGN.md §18) ----
    /// Forwarded to every detailed timing sim. Sampled mode attaches a
    /// SampledStats to the ConfigRun, tags the run's sample stream with
    /// mode=sampled + its scale factors, and folds a fingerprint into
    /// the manifest key, so a resumed fleet never mixes sampled and
    /// detailed records.
    SimMode sim_mode = SimMode::Detailed;
    uint64_t ff_functional = 0; ///< ops fast-forwarded per phase
    uint64_t detail_window = 0; ///< ops simulated in detail per window

    // ---- PMU sampling (sim/pmu/pmu.h) ----
    /// Forwarded to every detailed timing sim; off by default (no pmu.*
    /// keys in the record). Enabled features put a PmuData on the
    /// ConfigRun and fold a fingerprint into the manifest key, so a
    /// resumed fleet never mixes sampled and unsampled records.
    PmuOptions pmu;

    // ---- ALAT geometry (sim/alat.h; ILP-CS-DS data speculation) ----
    /// Overrides for MachineConfig::alat_entries / alat_assoc (assoc
    /// <= 0 selects fully-associative). Unset = machine defaults; a set
    /// value folds a fingerprint into the manifest key since it changes
    /// record bytes (recovery cycles).
    std::optional<int> alat_entries;
    std::optional<int> alat_assoc;
};

/** One configuration's full outcome. */
struct ConfigRun
{
    Config config = Config::ONS;
    bool ok = false;
    std::string error;
    int64_t checksum = 0;
    Perfmon pm;

    /// What the compilation firewall degraded (clean() if nothing).
    FallbackReport fallback;

    /// Compilation statistics (one shared block, see driver/pipeline.h).
    CompileStats stats;
    /// Per-(pass, rung) compile-time attribution.
    PipelineStats pipeline;
    int instrs_source = 0;
    int instrs_final = 0;

    /// The compiled program (kept for function-level attribution).
    std::shared_ptr<Program> prog;

    /// PMU streams of the accepted detailed sim (null when PMU off,
    /// the run degraded to functional, or it was manifest-resumed).
    std::shared_ptr<PmuData> pmu;

    /// Sampled-mode extrapolation (enabled only under SimMode::Sampled;
    /// records sim.sampled.* keys only then).
    SampledStats sampled;

    // ---- Supervision outcome (supervision.* in the record) ----
    /// Structured status of the accepted result (or last failure).
    RunStatus sim_status = RunStatus::Ok;
    /// Which ladder rung produced it: "detailed" (full timing sim),
    /// "functional" (architected result only, pm is zero), "skipped"
    /// (quarantined, ok = false).
    const char *sim_rung = "detailed";
    /// Detailed-sim attempts consumed (>= 1 once a sim ran).
    int sim_attempts = 0;
    /// Checkpoints taken / last blob size (supervision.checkpoint_*).
    uint64_t ckpt_instrs = 0;
    uint64_t ckpt_bytes = 0;
    /// Restored from the fleet manifest instead of re-run; record_json
    /// then holds the stored JSONL record verbatim.
    bool resumed = false;
    std::string record_json;
};

/** Outcome across configurations, plus the source-truth checksum. */
struct WorkloadRuns
{
    std::string name;
    int64_t source_checksum = 0;
    bool all_match = false; ///< every config reproduced the checksum
    std::string error;      ///< non-empty: the source run itself failed
    std::map<Config, ConfigRun> by_config;
    /// Firewall fallbacks aggregated across all configurations.
    FallbackReport fallback;
    /// Per-pass instrumentation aggregated across all configurations.
    PipelineStats pipeline;
};

/** One set of runs in a plan: configurations under one RunOptions. */
struct RunVariant
{
    std::vector<Config> configs;
    RunOptions opts;
};

/** Called with (variant index, merged runs of one workload). */
using PlanProgress = std::function<void(size_t, WorkloadRuns &)>;

/**
 * Run several variants as one plan; result [v] holds variant v's
 * workloads (those matching its `opts.only`) in suite order. One source
 * run per (workload, run_input) and one build + profile run per
 * (workload, profile_input) serve every variant; then all (variant x
 * workload x config) tasks run as one flat schedule over max(opts.jobs)
 * workers, and the last task reading a profiled program frees it. Each
 * (variant, workload) merges — its warnings, then `progress` — as soon
 * as it and everything before it in plan order has finished, and each
 * variant's last merge calls flushSuppressedWarnings(), so the output
 * equals one runSuite call per variant at any jobs value.
 */
std::vector<std::vector<WorkloadRuns>>
runPlan(const std::vector<RunVariant> &variants,
        const PlanProgress &progress = {});

/** A plan of one variant over `w` (which need not be in the suite). */
WorkloadRuns runWorkload(const Workload &w,
                         const std::vector<Config> &configs,
                         const RunOptions &opts = {});

/** The standard four configurations in Table 1 order. */
const std::vector<Config> &standardConfigs();

/** A plan of one variant; `progress` as runPlan's, per workload. */
std::vector<WorkloadRuns>
runSuite(const std::vector<Config> &configs, const RunOptions &opts = {},
         const std::function<void(const WorkloadRuns &)> &progress = {});

} // namespace epic

#endif // EPIC_DRIVER_EXPERIMENT_H
