#include "driver/compiler.h"

#include <chrono>

#include "ir/verifier.h"
#include "support/error.h"
#include "support/faultinject.h"
#include "support/logging.h"
#include "support/telemetry/trace.h"
#include "support/threadpool.h"

namespace epic {

CompileOptions
CompileOptions::forConfig(Config c)
{
    CompileOptions o;
    o.config = c;
    switch (c) {
      case Config::Gcc:
        o.enable_inline = false;
        o.enable_pointer_analysis = false;
        o.mach = MachineConfig::gccStyle();
        o.layout_opts.use_profile = false; // GCC 3.2: no profile feedback
        break;
      case Config::ONS:
      case Config::IlpNs:
      case Config::IlpCs:
      case Config::IlpCsDs:
        break;
    }
    return o;
}

Compiled
compileProgram(const Program &source, const CompileOptions &opts)
{
    Compiled out;
    out.config = opts.config;
    TraceSpan compile_span("compile", std::string("compileProgram [") +
                                          configName(opts.config) + "]");
    out.prog = source.clone();
    out.instrs_source = out.prog->staticInstrCount();

    const AliasLevel alias_level =
        opts.enable_pointer_analysis && opts.config != Config::Gcc
            ? AliasLevel::Inter
            : AliasLevel::None;

    // ---- High-level phase: inlining (profile-guided) ----
    // Inlining is the one interprocedural transform, so its transaction
    // is the whole program: run on a clone, commit only if the result
    // verifies. A rejected inline stage degrades to "no inlining" and
    // the per-function pipeline proceeds on the original bodies.
    if (opts.enable_inline && opts.config != Config::Gcc) {
        auto work = out.prog->clone();
        std::string fail_err;
        int fail_count = 0;
        bool injected_here = false;
        std::vector<int> live_faults;
        bool ok = true;
        InlineStats inl;
        PassStat &inline_stat = out.pipeline.at("inline", opts.config);
        const auto inline_t0 = std::chrono::steady_clock::now();
        const int inline_before = work->staticInstrCount();
        try {
            {
                TraceSpan span("compile.pass", "inline");
                inl = inlineProgram(*work, opts.inline_opts);
            }
            inline_stat.runs++;
            inline_stat.run_ms +=
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - inline_t0)
                    .count();
            inline_stat.instr_delta +=
                work->staticInstrCount() - inline_before;
            if (FaultInjector *inj = opts.firewall.inject) {
                for (auto &fp : work->funcs) {
                    if (!fp)
                        continue;
                    int idx = inj->inject(*fp, "inline",
                                          configName(opts.config));
                    if (idx >= 0) {
                        live_faults.push_back(idx);
                        injected_here = true;
                        out.fallback.faults_injected++;
                    }
                }
            }
            const auto v0 = std::chrono::steady_clock::now();
            VerifyReport vr;
            {
                TraceSpan span("compile.verify", "inline");
                vr = verifyAll(*work, "inline");
            }
            inline_stat.verify_ms +=
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - v0)
                    .count();
            if (!vr.ok()) {
                ok = false;
                fail_err = vr.errors.front();
                fail_count = static_cast<int>(vr.errors.size());
            }
        } catch (const InjectedFault &e) {
            ok = false;
            injected_here = true;
            out.fallback.faults_injected++;
            out.fallback.faults_caught++;
            fail_err = e.what();
            fail_count = 1;
        } catch (const CompileError &e) {
            ok = false;
            fail_err = e.what();
            fail_count = 1;
        }

        if (ok) {
            out.prog = std::move(work);
            out.stats.inl = inl;
        } else {
            if (FaultInjector *inj = opts.firewall.inject) {
                for (int idx : live_faults) {
                    inj->markCaught(idx);
                    out.fallback.faults_caught++;
                }
            }
            FallbackEvent ev;
            ev.function = "<whole program>";
            ev.attempted = opts.config;
            ev.failing_pass = "inline";
            ev.error = fail_err;
            ev.error_count = fail_count;
            ev.fault_injected = injected_here;
            ev.final_config = opts.config; // pipeline continues un-inlined
            out.fallback.events.push_back(std::move(ev));
        }
    }
    Program &prog = *out.prog;
    out.instrs_after_inline = prog.staticInstrCount();

    // ---- Interprocedural analysis + per-function firewalled pipeline ----
    // The alias analysis is hint/attribute-driven, so one post-inline
    // instance stays valid across every per-function transform (spill
    // code only references function-private stack slots). Functions are
    // therefore independent and compile on `opts.jobs` workers; each
    // commits prog.funcs[fid] for its own fid only, and outcomes are
    // merged below in fid order so stats, FallbackReport event order
    // and every floating-point sum are bit-identical to a serial run.
    AliasAnalysis aa(prog, alias_level);
    const int nfuncs = static_cast<int>(prog.funcs.size());
    std::vector<FunctionOutcome> outcomes(nfuncs);
    std::vector<FallbackReport> reports(nfuncs);
    // Arena-budget exhaustion is a structured resource outcome, not a
    // compile bug: it must not kill sibling workers or depend on the
    // schedule. Each worker records its own, and the lowest function id
    // wins deterministically — any --jobs value reports the same error.
    std::vector<std::unique_ptr<ArenaBudgetExceeded>> budget_errs(nfuncs);
    parallelFor(opts.jobs, nfuncs, [&](int fid) {
        if (!prog.funcs[fid])
            return;
        try {
            outcomes[fid] = compileFunctionFirewalled(prog, fid, opts,
                                                      aa, reports[fid]);
        } catch (const ArenaBudgetExceeded &e) {
            budget_errs[fid] = std::make_unique<ArenaBudgetExceeded>(e);
        }
    });
    for (int fid = 0; fid < nfuncs; ++fid)
        if (budget_errs[fid])
            throw *budget_errs[fid];
    for (int fid = 0; fid < nfuncs; ++fid) {
        if (!prog.funcs[fid])
            continue;
        out.fallback.merge(reports[fid]);
        out.stats += outcomes[fid].stats;
        out.pipeline.merge(outcomes[fid].pipeline);
    }

    // ---- Code layout (program-level, no IR rewriting) ----
    {
        TraceSpan span("compile.phase", "layout");
        out.layout = layoutProgram(prog, opts.layout_opts);
    }
    out.instrs_final = prog.staticInstrCount();
    // Every function already passed a per-pass verifier gate, so a
    // whole-program re-verify is pure overhead; keep it available as a
    // debug flag for chasing firewall bugs.
    if (opts.firewall.paranoid)
        verifyOrDie(prog, "firewall pipeline");

    return out;
}

Compiled
compileProgram(const Program &source, Config config)
{
    return compileProgram(source, CompileOptions::forConfig(config));
}

} // namespace epic
