#include "driver/firewall.h"

#include <chrono>
#include <functional>
#include <sstream>

#include "driver/compiler.h"
#include "ir/verifier.h"
#include "support/error.h"
#include "support/faultinject.h"
#include "support/logging.h"
#include "support/telemetry/trace.h"

namespace epic {

const char *
configName(Config c)
{
    switch (c) {
      case Config::Gcc: return "GCC";
      case Config::ONS: return "O-NS";
      case Config::IlpNs: return "ILP-NS";
      case Config::IlpCs: return "ILP-CS";
      case Config::IlpCsDs: return "ILP-CS-DS";
    }
    return "?";
}

bool
degradeConfig(Config c, Config *lower)
{
    switch (c) {
      case Config::IlpCsDs: *lower = Config::IlpCs; return true;
      case Config::IlpCs: *lower = Config::IlpNs; return true;
      case Config::IlpNs: *lower = Config::ONS; return true;
      case Config::ONS: *lower = Config::Gcc; return true;
      case Config::Gcc: return false;
    }
    return false;
}

std::string
FallbackEvent::str() const
{
    std::ostringstream os;
    os << function << ": " << configName(attempted) << " rejected at "
       << failing_pass;
    if (error_count > 1)
        os << " (" << error_count << " errors)";
    os << ": " << error << " -> landed " << configName(final_config);
    if (fault_injected)
        os << " [fault injected]";
    return os.str();
}

void
FallbackReport::merge(const FallbackReport &o)
{
    events.insert(events.end(), o.events.begin(), o.events.end());
    functions_total += o.functions_total;
    functions_degraded += o.functions_degraded;
    clean_retries += o.clean_retries;
    faults_injected += o.faults_injected;
    faults_caught += o.faults_caught;
}

std::string
FallbackReport::str() const
{
    if (clean())
        return "";
    std::ostringstream os;
    os << "compilation firewall: " << events.size() << " fallback(s), "
       << functions_degraded << "/" << functions_total
       << " function(s) degraded";
    if (faults_injected) {
        os << "; " << faults_injected << " fault(s) injected, "
           << faults_caught << " caught";
        if (clean_retries)
            os << ", " << clean_retries << " clean floor retr"
               << (clean_retries == 1 ? "y" : "ies");
    }
    os << "\n";
    for (const FallbackEvent &e : events)
        os << "  " << e.str() << "\n";
    return os.str();
}

namespace {

/** Milliseconds elapsed since `t0` on the steady clock. */
double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Budget overrun: a rung fails when a pass grows the function past
 * max(kMinGrowthInstrs, kGrowthBudget * original size).
 */
constexpr double kGrowthBudget = 64.0;
constexpr int kMinGrowthInstrs = 4096;

/** Trace-event args for a pass span ("" when tracing is off). */
std::string
passTraceArgs(const std::string &fname, Config rung)
{
    if (!TraceRecorder::global().enabled())
        return {};
    return "{\"function\":\"" + jsonEscape(fname) + "\",\"rung\":\"" +
           configName(rung) + "\"}";
}

} // namespace

FunctionOutcome
compileFunctionFirewalled(Program &prog, int fid,
                          const CompileOptions &opts,
                          const AliasAnalysis &aa, FallbackReport &report)
{
    Function *orig = prog.func(fid);
    epic_assert(orig, "firewall: no function with id ", fid);
    const std::string fname = orig->name;
    const Config start =
        (orig->attr & kFuncLibrary) ? Config::Gcc : opts.config;
    const int budget = std::max(
        kMinGrowthInstrs,
        static_cast<int>(kGrowthBudget * orig->staticInstrCount()));

    report.functions_total++;
    const size_t first_event = report.events.size();

    PipelineStats pipe; ///< survives rollbacks: attempts cost real time

    // Per-function arena budget: supervision pages are 16K, matching
    // the simulator's heap accounting unit.
    const uint64_t arena_budget = opts.max_arena_pages * (uint64_t{16} << 10);
    const bool recycle =
        opts.firewall.snapshot == SnapshotStrategy::kWatermark;
    // Arena activity of abandoned deep clones (their arenas die with
    // them); the recycling strategy accumulates inside `work` instead.
    ArenaCounters abandoned_arena;

    std::unique_ptr<Function> work;
    Config rung = start;
    bool clean_floor = false; ///< final Gcc attempt, injector disarmed
    while (true) {
        FaultInjector *inj = clean_floor ? nullptr : opts.firewall.inject;
        if (work && recycle) {
            // Watermark strategy: discard the failed attempt with one
            // O(1) arena rollback and re-copy the source into the
            // retained chunks — a warm retry performs no chunk mallocs.
            orig->cloneInto(*work);
        } else {
            if (work)
                abandoned_arena += work->arena().counters();
            work = orig->clone(arena_budget);
        }
        // Fresh manager per attempt: rollback and fallback-ladder
        // re-entry start cold by construction, never from stale caches.
        AnalysisManager am(*work, &aa, opts.analysis_mode);
        FunctionOutcome r;
        std::vector<const PassDesc *> passes = buildPipeline(rung, opts);

        std::string fail_pass, fail_err;
        int fail_count = 0;
        bool injected_here = false;
        std::vector<int> live_faults; ///< fired, not yet gated
        bool ok = true;
        try {
            for (const PassDesc *p : passes) {
                const int before = work->staticInstrCount();
                const AnalysisCounters actr0 = am.counters();
                am.beginPass(p->name);
                const auto t0 = std::chrono::steady_clock::now();
                {
                    TraceSpan span("compile.pass", p->name,
                                   passTraceArgs(fname, rung));
                    p->run(*work, rung, opts, am, r.stats);
                }
                PassStat &ps = pipe.at(p->name, rung);
                ps.runs++;
                ps.run_ms += msSince(t0);
                ps.instr_delta += work->staticInstrCount() - before;
                bool fault_here = false;
                if (inj) {
                    int idx = inj->inject(*work, p->name,
                                          configName(rung), &am);
                    if (idx >= 0) {
                        live_faults.push_back(idx);
                        injected_here = true;
                        fault_here = true;
                        report.faults_injected++;
                    }
                }
                // Pass boundary: trust the declared preserves set —
                // unless a fault just mutated the IR behind the pass's
                // back, in which case nothing cached can be trusted
                // (and the stale checker must not blame the pass).
                if (fault_here)
                    am.invalidateAll();
                else
                    am.invalidateAllExcept(p->preserves);
                ps.analysis += am.counters() - actr0;
                const int sz = work->staticInstrCount();
                if (p->growth_gate && sz > budget) {
                    std::ostringstream os;
                    os << "growth budget overrun: " << sz << " instrs > "
                       << budget << " budget";
                    throw CompileError(p->name, os.str());
                }
                if (p->verify_gate) {
                    const auto v0 = std::chrono::steady_clock::now();
                    std::vector<std::string> errs;
                    {
                        TraceSpan span("compile.verify", p->name,
                                       passTraceArgs(fname, rung));
                        errs = verifyFunction(*work);
                    }
                    ps.verify_ms += msSince(v0);
                    if (!errs.empty()) {
                        ok = false;
                        fail_pass = p->name;
                        fail_err = errs.front();
                        fail_count = static_cast<int>(errs.size());
                        break;
                    }
                }
            }
        } catch (const InjectedFault &e) {
            ok = false;
            injected_here = true;
            report.faults_injected++;
            report.faults_caught++;
            fail_pass = e.pass();
            fail_err = e.what();
            fail_count = 1;
        } catch (const CompileError &e) {
            ok = false;
            fail_pass = e.pass();
            fail_err = e.what();
            fail_count = 1;
        }

        if (ok) {
            // Commit: the verified clone replaces the source function.
            r.stats.arena += abandoned_arena;
            r.stats.arena += work->arena().counters();
            r.stats.arena += am.arenaCounters();
            prog.funcs[fid] = std::move(work);
            for (size_t i = first_event; i < report.events.size(); ++i)
                report.events[i].final_config = rung;
            if (rung != start)
                report.functions_degraded++;
            r.landed = rung;
            r.pipeline = std::move(pipe);
            return r;
        }

        // Roll back. Faults that fired on this attempt die with the
        // abandoned clone: absorbed.
        if (inj) {
            for (int idx : live_faults) {
                inj->markCaught(idx);
                report.faults_caught++;
            }
        }

        FallbackEvent ev;
        ev.function = fname;
        ev.attempted = rung;
        ev.failing_pass = fail_pass;
        ev.error = fail_err;
        ev.error_count = fail_count;
        ev.fault_injected = injected_here;
        ev.final_config = Config::Gcc; // backfilled on commit
        report.events.push_back(std::move(ev));

        Config lower;
        if (degradeConfig(rung, &lower)) {
            rung = lower;
        } else if (!clean_floor && opts.firewall.inject) {
            // Injection corrupted even the Gcc floor; one last attempt
            // with the injector disarmed. Real compilations (no
            // injector) never reach this.
            clean_floor = true;
            report.clean_retries++;
        } else {
            epic_panic("compilation firewall exhausted for ", fname,
                       ": Gcc floor failed at ", fail_pass, ": ",
                       fail_err);
        }
    }
}

} // namespace epic
