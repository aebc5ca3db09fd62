/**
 * @file
 * Compilation firewall: transactional per-function compilation with
 * graceful degradation.
 *
 * `verifyOrDie` turns one broken function into a dead experiment. A
 * region-based ILP compiler headed for production has to contain such
 * failures instead: each function is compiled on a *clone*, the IR is
 * re-verified after every pass (and optionally corrupted between passes
 * by the fault-injection engine, support/faultinject.h), and the clone
 * is committed back into the program only when every gate passed. On a
 * verifier rejection, a recoverable CompileError (e.g. the register
 * allocator running out of a register class), or a code-growth budget
 * overrun, the function alone walks the degradation ladder
 *
 *     IlpCs -> IlpNs -> ONS -> Gcc
 *
 * and each abandoned rung is recorded as a FallbackEvent. The
 * whole-program inline stage (driver/compiler.cc) is one more attempt
 * of the same kind, with GatedAttempt's bookkeeping. The experiment
 * harness aggregates the resulting FallbackReport and the bench
 * binaries print it, so a degraded run is visible — but still a run,
 * with architected semantics intact.
 *
 * Each function keeps one work clone, recycled across its rung
 * attempts: abandoning an attempt is an O(1) arena watermark rollback.
 */
#ifndef EPIC_DRIVER_FIREWALL_H
#define EPIC_DRIVER_FIREWALL_H

#include <functional>
#include <string>
#include <vector>

#include "analysis/alias.h"
#include "driver/config.h"
#include "driver/pipeline.h"

namespace epic {

class FaultInjector;
struct CompileOptions;

/** One abandoned rung of one function's compilation. */
struct FallbackEvent
{
    std::string function;
    Config attempted = Config::IlpCs; ///< rung that failed
    std::string failing_pass;         ///< gate that rejected the IR
    std::string error;                ///< first verifier error / exception
    int error_count = 1;              ///< total errors at the gate
    bool fault_injected = false;      ///< an injected fault was live here
    Config final_config = Config::Gcc; ///< rung the function landed on

    /** One-line rendering for reports. */
    std::string str() const;
};

/** Aggregated firewall outcome for one compilation (or one suite). */
struct FallbackReport
{
    std::vector<FallbackEvent> events;
    int functions_total = 0;
    int functions_degraded = 0; ///< landed below their requested config
    int clean_retries = 0;      ///< Gcc floor re-runs with injection off
    int faults_injected = 0;
    int faults_caught = 0; ///< rejected at a gate / absorbed by fallback

    bool clean() const { return events.empty(); }
    void merge(const FallbackReport &o);
    /** Multi-line printable summary (empty string when clean). */
    std::string str() const;
};

/** Firewall knobs, part of CompileOptions. */
struct FirewallOptions
{
    /// Optional fault-injection engine (not owned). Corrupts the IR at
    /// pass boundaries; the firewall marks which faults its gates
    /// caught.
    FaultInjector *inject = nullptr;
    /// Re-verify the whole program after the per-function pipeline.
    /// Redundant (every function already passed a per-pass gate) and
    /// off by default; a debug flag for chasing firewall bugs.
    bool paranoid = false;
};

/**
 * One transactional compile attempt's bookkeeping, shared by every rung
 * of the per-function pipeline and by the whole-program inline stage.
 * It times and traces each pass and verifier gate into the attempt's
 * PassStat, counts the faults fired at each pass boundary, and turns a
 * gate rejection, a CompileError or an InjectedFault into the attempt's
 * FallbackEvent. The caller owns the work clone and commits or abandons
 * it.
 */
class GatedAttempt
{
  public:
    /** `size` counts the static instructions of the IR under work. */
    GatedAttempt(std::function<int()> size, FaultInjector *inject,
                 Config rung, std::string trace_args, PipelineStats &pipe,
                 FallbackReport &report);

    /** Run the attempt's steps; false when one of them failed. */
    bool run(const std::function<void()> &steps);

    /** Run one pass, traced and timed into its (pass, rung) PassStat. */
    PassStat &pass(const std::string &name,
                   const std::function<void()> &body);

    /** The fault-injection site after `pass` on `f`; true if it fired. */
    bool inject(Function &f, const std::string &pass,
                AnalysisManager *am = nullptr);

    /** The verifier gate after ps's pass; false (failed) on any error. */
    bool verify(PassStat &ps,
                const std::function<std::vector<std::string>()> &check);

    /**
     * Abandon the failed attempt: its live faults die with the work
     * clone (caught), and its event, landing on `landed`, is appended
     * to the report.
     */
    const FallbackEvent &abandon(const std::string &function,
                                 Config landed);

  private:
    std::function<int()> size_;
    FaultInjector *inject_;
    std::string trace_args_;
    PipelineStats &pipe_;
    FallbackReport &report_;
    std::vector<int> live_faults_; ///< fired, not yet gated
    FallbackEvent ev_;             ///< failure so far
    bool failed_ = false;
};

/** Per-function compilation outcome. */
struct FunctionOutcome
{
    Config landed = Config::Gcc;
    /// Transform statistics of the committed (landed) attempt.
    CompileStats stats;
    /// Per-pass instrumentation across *all* attempts, abandoned rungs
    /// included — compile time spent is compile time spent.
    PipelineStats pipeline;
};

/**
 * Compile prog.funcs[fid] transactionally under `opts`, committing the
 * first rung whose every pass verifies and appending any abandoned
 * rungs to `report`. Library functions start at the Gcc rung (the
 * paper's gcc-compiled system libraries). Panics only if even the Gcc
 * floor produces unverifiable code with no fault injected — a genuine
 * EpicLab bug.
 */
FunctionOutcome compileFunctionFirewalled(Program &prog, int fid,
                                          const CompileOptions &opts,
                                          const AliasAnalysis &aa,
                                          FallbackReport &report);

} // namespace epic

#endif // EPIC_DRIVER_FIREWALL_H
