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

GatedAttempt::GatedAttempt(std::function<int()> size,
                           FaultInjector *inject, Config rung,
                           std::string trace_args, PipelineStats &pipe,
                           FallbackReport &report)
    : size_(std::move(size)), inject_(inject),
      trace_args_(std::move(trace_args)), pipe_(pipe), report_(report)
{
    ev_.attempted = rung;
}

bool
GatedAttempt::run(const std::function<void()> &steps)
{
    try {
        steps();
    } catch (const CompileError &e) {
        if (dynamic_cast<const InjectedFault *>(&e)) {
            // PassThrow: the fault recorded itself, pre-marked caught.
            ev_.fault_injected = true;
            report_.faults_injected++;
            report_.faults_caught++;
        }
        failed_ = true;
        ev_.failing_pass = e.pass();
        ev_.error = e.what();
    }
    return !failed_;
}

PassStat &
GatedAttempt::pass(const std::string &name,
                   const std::function<void()> &body)
{
    const int before = size_();
    const auto t0 = std::chrono::steady_clock::now();
    {
        TraceSpan span("compile.pass", name, trace_args_);
        body();
    }
    PassStat &ps = pipe_.at(name, ev_.attempted);
    ps.runs++;
    ps.run_ms += msSince(t0);
    ps.instr_delta += size_() - before;
    return ps;
}

bool
GatedAttempt::inject(Function &f, const std::string &pass,
                     AnalysisManager *am)
{
    if (!inject_)
        return false;
    const int idx = inject_->inject(f, pass, configName(ev_.attempted), am);
    if (idx < 0)
        return false;
    live_faults_.push_back(idx);
    ev_.fault_injected = true;
    report_.faults_injected++;
    return true;
}

bool
GatedAttempt::verify(PassStat &ps,
                     const std::function<std::vector<std::string>()> &check)
{
    const auto v0 = std::chrono::steady_clock::now();
    std::vector<std::string> errs;
    {
        TraceSpan span("compile.verify", ps.pass, trace_args_);
        errs = check();
    }
    ps.verify_ms += msSince(v0);
    if (errs.empty())
        return true;
    failed_ = true;
    ev_.failing_pass = ps.pass;
    ev_.error = errs.front();
    ev_.error_count = static_cast<int>(errs.size());
    return false;
}

const FallbackEvent &
GatedAttempt::abandon(const std::string &function, Config landed)
{
    for (int idx : live_faults_) {
        inject_->markCaught(idx);
        report_.faults_caught++;
    }
    ev_.function = function;
    ev_.final_config = landed;
    report_.events.push_back(ev_);
    return report_.events.back();
}

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

    std::unique_ptr<Function> work;
    Config rung = start;
    bool clean_floor = false; ///< final Gcc attempt, injector disarmed
    while (true) {
        // One work clone per function, recycled across rung attempts:
        // a failed attempt is discarded with one O(1) arena rollback,
        // and re-copying the source into the retained chunks makes a
        // warm retry malloc-free.
        if (work)
            orig->cloneInto(*work);
        else
            work = orig->clone(arena_budget);
        // Fresh manager per attempt: rollback and fallback-ladder
        // re-entry start cold by construction, never from stale caches.
        AnalysisManager am(*work, &aa, opts.analysis_mode);
        FunctionOutcome r;
        GatedAttempt attempt([&] { return work->staticInstrCount(); },
                             clean_floor ? nullptr : opts.firewall.inject,
                             rung, passTraceArgs(fname, rung), pipe, report);
        const bool ok = attempt.run([&] {
            for (const PassDesc *p : buildPipeline(rung, opts)) {
                const AnalysisCounters actr0 = am.counters();
                am.beginPass(p->name);
                PassStat &ps = attempt.pass(p->name, [&] {
                    p->run(*work, rung, opts, am, r.stats);
                });
                // Pass boundary: trust the declared preserves set —
                // unless a fault just mutated the IR behind the pass's
                // back, in which case nothing cached can be trusted
                // (and the stale checker must not blame the pass).
                if (attempt.inject(*work, p->name, &am))
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
                if (p->verify_gate && !attempt.verify(ps, [&] {
                        return verifyFunction(*work);
                    }))
                    return;
            }
        });

        if (ok) {
            // Commit: the verified clone replaces the source function.
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

        // Roll back; the landing rung is backfilled on commit.
        const FallbackEvent &ev = attempt.abandon(fname, Config::Gcc);
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
                       ": Gcc floor failed at ", ev.failing_pass, ": ",
                       ev.error);
        }
    }
}

} // namespace epic
