/**
 * @file
 * EpicLab end-to-end benchmark driver. run.py builds and runs it; see
 * the docstring there for the workloads, the metrics and how to run it.
 *
 * One process runs one workload through EpicLab's public API with at
 * most min(4, nproc) threads:
 *
 *  - fleet:   runSuite(standardConfigs()) at jobs = min(4, nproc), the
 *             `epiclab_run --all` path;
 *  - compile: compileProgram() of the 12 profiled stand-ins under all
 *             five configurations, jobs 1.
 *
 * Untraced runs (--trace 0) give the end-to-end metrics. A traced run
 * (--trace 1) instead makes one untraced pass at the workload's job
 * count (pool metrics), one traced pass at jobs 1 with a span around
 * every call into an EpicLab layer, and an untraced twin of the traced
 * layer calls (tracing overhead); it prints the per-layer metrics.
 *
 * Every task's architected checksum is compared with the source-run
 * reference (the interpreter on the unoptimised program). Simulated
 * and compile counters must repeat exactly across passes, and between
 * the fleet and its jobs-1 replay. The process prints one JSON document
 * on stdout and exits 1 when anything failed or drifted.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "driver/experiment.h"
#include "sim/interp.h"
#include "sim/timing.h"
#include "support/supervision/manifest.h"
#include "support/threadpool.h"
#include "workloads/workload.h"

#include "spans.h"

namespace {

using namespace epic;
using perfbench::nowNs;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Calibration loop length: about 0.15 s on a 2 GHz core.
constexpr uint64_t kCalibrationIters = 100'000'000;
/// A tail percentile needs at least this many samples beyond it.
constexpr size_t kTailBeyond = 10;

enum class Kind { Fleet, Compile };

const char *const kUsage =
    "usage: perfbench --workload fleet|compile --seed N\n"
    "                 --seconds S --trace 0|1 [--trace-out FILE]\n"
    "                 [--corrupt-reference WORKLOAD]\n";

struct Args
{
    Kind kind = Kind::Fleet;
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string trace_out;
    /// Test hook: perturb one workload's reference checksum so every
    /// task of it must be counted as failed.
    std::string corrupt_reference;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n%s", msg.c_str(), kUsage);
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || *end != '\0' || errno == ERANGE)
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    return x;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload") {
            have_workload = true;
            a.workload = v;
            if (v == "fleet")
                a.kind = Kind::Fleet;
            else if (v == "compile")
                a.kind = Kind::Compile;
            else
                usage("unknown workload '" + v + "'");
        } else if (flag == "--seed") {
            have_seed = true;
            a.seed = parseUnsigned(flag, v);
        } else if (flag == "--seconds") {
            have_seconds = true;
            a.seconds = static_cast<double>(parseUnsigned(flag, v));
            if (a.seconds < 1)
                usage("--seconds must be at least 1");
        } else if (flag == "--trace") {
            have_trace = true;
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--trace-out") {
            a.trace_out = v;
        } else if (flag == "--corrupt-reference") {
            a.corrupt_reference = v;
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return a;
}

// ---------------------------------------------------------------- host

int
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

std::vector<double>
loadAverage()
{
    double l[3] = {0, 0, 0};
    if (getloadavg(l, 3) != 3)
        return {};
    return {l[0], l[1], l[2]};
}

volatile uint64_t g_calibration_sink = 0;

/** Fixed CPU-bound loop; its time tracks the host's current speed. */
double
calibrate()
{
    const int64_t t0 = nowNs();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint64_t i = 0; i < kCalibrationIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x += i;
    }
    g_calibration_sink = x;
    return (nowNs() - t0) / 1e9;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // Linux reports KiB
}

// --------------------------------------------------------------- suite

/** The five compile configurations: Table 1 order plus ILP-CS-DS. */
const std::vector<Config> &
compileConfigs()
{
    static const std::vector<Config> kConfigs = {
        Config::Gcc, Config::ONS, Config::IlpNs, Config::IlpCs,
        Config::IlpCsDs};
    return kConfigs;
}

/** Everything the timed region needs, built in set-up. */
struct Suite
{
    std::vector<const Workload *> workloads; ///< suite order
    /// Source-run checksum per workload: the interpreter on the
    /// unoptimised program with the ref input.
    std::vector<int64_t> reference;
    std::vector<std::unique_ptr<Program>> profiled; ///< compile only
};

struct Task
{
    int w = 0;
    Config cfg = Config::Gcc;
};

std::string
taskId(const Suite &s, int w, const char *cfg)
{
    return s.workloads[w]->name + "|" + cfg;
}

std::string
taskId(const Suite &s, const Task &t)
{
    return taskId(s, t.w, configName(t.cfg));
}

/** Work counts gathered from the program's own result structures. */
struct LayerCounts
{
    uint64_t interp_ops = 0;
    int64_t instrs_final = 0;
    int64_t fallbacks = 0;
    int64_t analysis_hits = 0;
    int64_t analysis_misses = 0;
    uint64_t arena_bytes = 0;
    std::map<std::string, double> pass_ms; ///< by pass group
    double verify_ms = 0;
    uint64_t sim_ops = 0;
    uint64_t sim_cycles = 0;
};

/// Pass groups reported as compile.pass.<group>_s, pipeline order.
const std::vector<std::string> kPassGroups = {
    "inline", "classical", "superblock", "hyperblock", "peel",
    "speculate", "post-region", "schedule", "regalloc"};

/** Map a PipelineStats pass name onto its reported group. */
std::string
passGroup(const std::string &pass)
{
    if (pass.rfind("post-region", 0) == 0)
        return "post-region";
    if (pass.rfind("superblock", 0) == 0)
        return "superblock";
    if (pass.rfind("hyperblock", 0) == 0)
        return "hyperblock";
    if (pass == "dataspec")
        return "speculate";
    return pass;
}

void
addCompile(LayerCounts &lc, const Compiled &c)
{
    lc.instrs_final += c.instrs_final;
    lc.fallbacks += static_cast<int64_t>(c.fallback.events.size());
    lc.arena_bytes += c.stats.arena.bytes_allocated;
    for (const PassStat &p : c.pipeline.passes) {
        lc.pass_ms[passGroup(p.pass)] += p.run_ms;
        lc.verify_ms += p.verify_ms;
        lc.analysis_hits += p.analysis.totalHits();
        lc.analysis_misses += p.analysis.totalMisses();
    }
}

uint64_t
retiredOps(const Perfmon &pm)
{
    return pm.useful_ops + pm.squashed_ops;
}

void
addSim(LayerCounts &lc, const TimingResult &r)
{
    lc.sim_cycles += r.pm.total();
    lc.sim_ops += retiredOps(r.pm);
}

/** Deterministic per-task outcome: must repeat exactly. */
struct TaskOutcome
{
    int64_t checksum = 0;
    uint64_t cycles = 0;
    uint64_t ops = 0;
    int64_t instrs_final = 0;

    bool operator==(const TaskOutcome &) const = default;
};

using Outcomes = std::map<std::string, TaskOutcome>; // by task id

/** The latest compiled program of each compile task, for verification. */
struct KeptProgram
{
    int w = 0;
    std::unique_ptr<Program> prog;
};
using Kept = std::map<std::string, KeptProgram>; // by task id

/** A driver-run task's outcome, comparable with simOutcome's. */
TaskOutcome
configOutcome(const ConfigRun &r)
{
    TaskOutcome o;
    o.checksum = r.checksum;
    o.cycles = r.pm.total();
    o.ops = retiredOps(r.pm);
    o.instrs_final = r.instrs_final;
    return o;
}

TaskOutcome
simOutcome(const TimingResult &r, int instrs_final)
{
    TaskOutcome o;
    o.checksum = r.ret_value;
    o.cycles = r.pm.total();
    o.ops = retiredOps(r.pm);
    o.instrs_final = instrs_final;
    return o;
}

/** Correctness bookkeeping shared by every pass. */
struct Check
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors; ///< failures, mismatches, drift

    void
    task(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            note(what);
        }
    }
    void
    note(const std::string &what)
    {
        // Keep the document small when a whole suite fails.
        if (errors.size() < 50)
            errors.push_back(what);
    }
};

std::string
mismatch(const std::string &id, int64_t got, int64_t want)
{
    return id + ": checksum " + std::to_string(got) + " vs reference " +
           std::to_string(want);
}

/** Compare a pass's outcomes with a reference pass's; note any drift. */
void
checkSame(Check &chk, const Outcomes &ref, const Outcomes &got,
          const std::string &what)
{
    if (ref == got)
        return;
    std::string detail = "key sets differ";
    for (const auto &[id, o] : ref) {
        auto it = got.find(id);
        if (it != got.end() && !(it->second == o)) {
            detail = "first difference at " + id;
            break;
        }
    }
    chk.note("determinism drift: " + what + " (" + detail + ")");
}

std::unique_ptr<Program>
buildProgram(const Workload &w)
{
    auto p = w.build();
    p->layoutData();
    return p;
}

void
loadImage(const Workload &w, const Program &p, Memory &mem, InputKind in)
{
    mem.initFromProgram(p);
    w.write_input(p, mem, in);
}

CompileOptions
compileOptions(Config cfg)
{
    CompileOptions o = CompileOptions::forConfig(cfg);
    o.jobs = 1; // as runConfig sets it for a jobs-1 run
    return o;
}

/** Source run: the reference checksum of one workload. */
int64_t
sourceRun(const Workload &w, SpanRecorder &rec, const std::string &task,
          LayerCounts *lc)
{
    std::unique_ptr<Program> p;
    Memory mem;
    {
        ScopedSpan span(rec, "workloads.build", task);
        p = buildProgram(w);
        loadImage(w, *p, mem, InputKind::Ref);
    }
    InterpResult r;
    {
        ScopedSpan span(rec, "interp.source", task);
        r = interpret(*p, mem);
    }
    if (!r.ok)
        throw std::runtime_error(w.name + ": source run failed: " + r.error);
    if (lc)
        lc->interp_ops += r.dyn_instrs;
    return r.ret_value;
}

/** Build + profile on the train input, as runConfig does. */
std::unique_ptr<Program>
profiledProgram(const Workload &w, SpanRecorder &rec, const std::string &task,
                LayerCounts *lc)
{
    std::unique_ptr<Program> p;
    Memory mem;
    {
        ScopedSpan span(rec, "workloads.build", task);
        p = buildProgram(w);
        loadImage(w, *p, mem, InputKind::Train);
    }
    InterpResult r;
    {
        ScopedSpan span(rec, "interp.profile", task);
        r = profileRun(*p, mem);
    }
    if (!r.ok)
        throw std::runtime_error(w.name + ": profile run failed: " + r.error);
    if (lc)
        lc->interp_ops += r.dyn_instrs;
    return p;
}

/**
 * Set-up: reference checksums for every workload, plus the profiled
 * programs the compile workload's timed region consumes. Runs at the workload's job count, so peak RSS
 * does not depend on how set-up work happened to overlap.
 */
Suite
setUp(const Args &a, int jobs)
{
    Suite s;
    for (const Workload &w : allWorkloads())
        s.workloads.push_back(&w);
    const int n = static_cast<int>(s.workloads.size());
    s.reference.resize(n);
    if (a.kind == Kind::Compile)
        s.profiled.resize(n);
    // A disabled recorder keeps no state, so workers may share it.
    SpanRecorder off(false);
    parallelFor(jobs, n, [&](int i) {
        const Workload &w = *s.workloads[i];
        s.reference[i] = sourceRun(w, off, "", nullptr);
        if (a.kind == Kind::Fleet)
            return;
        s.profiled[i] = profiledProgram(w, off, "", nullptr);
    });
    if (!a.corrupt_reference.empty()) {
        bool found = false;
        for (int i = 0; i < n; ++i) {
            if (s.workloads[i]->name == a.corrupt_reference) {
                s.reference[i] ^= 1;
                found = true;
            }
        }
        if (!found)
            usage("--corrupt-reference: no workload '" +
                  a.corrupt_reference + "'");
    }
    return s;
}

/** The seed's task order for one pass of the compile workload. */
std::vector<Task>
taskOrder(const Suite &s, std::mt19937_64 &rng)
{
    std::vector<Task> tasks;
    const int n = static_cast<int>(s.workloads.size());
    for (int w = 0; w < n; ++w)
        for (Config c : compileConfigs())
            tasks.push_back({w, c});
    std::shuffle(tasks.begin(), tasks.end(), rng);
    return tasks;
}

// -------------------------------------------------------------- passes

/** Result of one pass over a workload's tasks. */
struct Pass
{
    Outcomes outcomes;
    std::vector<double> task_ms; ///< latency of each task's layer call
    int64_t tasks = 0;
    double wall_s = 0;
};

/**
 * One fleet pass: runSuite over the standard configurations, exactly
 * the `epiclab_run --all --jobs N` path.
 */
Pass
fleetPass(const Suite &s, int jobs, Check &chk)
{
    Pass p;
    RunOptions o;
    o.jobs = jobs;
    const int64_t t0 = nowNs();
    const std::vector<WorkloadRuns> runs = runSuite(standardConfigs(), o);
    p.wall_s = (nowNs() - t0) / 1e9;
    p.task_ms.push_back(p.wall_s * 1e3);
    if (runs.size() != s.workloads.size())
        throw std::runtime_error("runSuite returned " +
                                 std::to_string(runs.size()) + " workloads");
    for (size_t i = 0; i < runs.size(); ++i) {
        const WorkloadRuns &wr = runs[i];
        for (Config cfg : standardConfigs()) {
            const std::string id =
                taskId(s, static_cast<int>(i), configName(cfg));
            auto it = wr.by_config.find(cfg);
            if (it == wr.by_config.end() || !it->second.ok) {
                chk.task(false, id + ": failed: " +
                                    (it == wr.by_config.end()
                                         ? wr.error
                                         : it->second.error));
                p.outcomes[id] = TaskOutcome{};
            } else {
                const ConfigRun &r = it->second;
                chk.task(r.checksum == s.reference[i] &&
                             wr.source_checksum == s.reference[i],
                         mismatch(id, r.checksum, s.reference[i]));
                p.outcomes[id] = configOutcome(r);
            }
            ++p.tasks;
        }
    }
    return p;
}

/** One compile task; returns the compiled program. */
std::unique_ptr<Program>
compileTask(const Suite &s, const Task &t, SpanRecorder &rec, Pass &p,
            LayerCounts *lc)
{
    const std::string id = taskId(s, t);
    Compiled c;
    const int64_t t0 = nowNs();
    {
        ScopedSpan span(rec, "compile", id);
        c = compileProgram(*s.profiled[t.w], compileOptions(t.cfg));
    }
    p.task_ms.push_back((nowNs() - t0) / 1e6);
    if (lc)
        addCompile(*lc, c);
    TaskOutcome o;
    o.instrs_final = c.instrs_final;
    p.outcomes[id] = o;
    ++p.tasks;
    return std::move(c.prog);
}

/**
 * Compile workload correctness: run every compiled program in
 * scheduled order and compare with the reference. A mismatching
 * program fails every timed compile of its task (compiles repeat
 * exactly, which the determinism guard checks).
 */
void
verifyCompiled(const Suite &s, const Kept &kept, int passes, int jobs,
               Check &chk)
{
    std::vector<const Kept::value_type *> items;
    for (const Kept::value_type &kv : kept)
        items.push_back(&kv);
    std::vector<std::string> bad(items.size());
    parallelFor(jobs, static_cast<int>(items.size()), [&](int i) {
        const auto &[id, k] = *items[i];
        Memory mem;
        loadImage(*s.workloads[k.w], *k.prog, mem, InputKind::Ref);
        InterpOptions io;
        io.scheduled_order = true;
        const InterpResult r = interpret(*k.prog, mem, io);
        if (!r.ok)
            bad[i] = id + ": scheduled-order run failed: " + r.error;
        else if (r.ret_value != s.reference[k.w])
            bad[i] = mismatch(id + " scheduled order", r.ret_value,
                              s.reference[k.w]);
    });
    for (const std::string &b : bad) {
        if (b.empty())
            continue;
        chk.failed += passes;
        chk.note(b);
    }
}

/** One pass of compile tasks in the given order. */
Pass
compilePass(const Suite &s, const std::vector<Task> &order, SpanRecorder &rec,
            Check &chk, LayerCounts *lc, Kept *keep)
{
    Pass p;
    const int64_t t0 = nowNs();
    for (const Task &t : order) {
        ScopedSpan task(rec, "bench.task", taskId(s, t));
        auto prog = compileTask(s, t, rec, p, lc);
        if (keep)
            (*keep)[taskId(s, t)] = {t.w, std::move(prog)};
    }
    chk.attempted += p.tasks; // verified after the timed region
    p.wall_s = (nowNs() - t0) / 1e9;
    return p;
}

/**
 * The fleet's replay at jobs 1: per workload, runWorkload as one driver
 * span (when `with_driver`), then the source run and runConfig's call
 * sequence for every configuration (build + profile, compile, image,
 * detailed sim). Checks the replay against the driver's own results.
 */
Pass
fleetReplay(const Suite &s, SpanRecorder &rec, Check &chk, LayerCounts *lc,
            bool with_driver)
{
    Pass p;
    Outcomes driver;
    const int64_t t0 = nowNs();
    for (size_t i = 0; i < s.workloads.size(); ++i) {
        const int wi = static_cast<int>(i);
        const Workload &w = *s.workloads[i];
        WorkloadRuns wr;
        if (with_driver) {
            ScopedSpan span(rec, "driver.run_workload", taskId(s, wi, "*"));
            RunOptions o;
            o.jobs = 1;
            wr = runWorkload(w, standardConfigs(), o);
        }
        for (Config cfg : standardConfigs()) {
            auto it = wr.by_config.find(cfg);
            if (it != wr.by_config.end() && it->second.ok)
                driver[taskId(s, wi, configName(cfg))] =
                    configOutcome(it->second);
        }
        {
            const std::string id = taskId(s, wi, "source");
            ScopedSpan task(rec, "bench.task", id);
            const int64_t ref = sourceRun(w, rec, id, lc);
            chk.task(ref == s.reference[i], mismatch(id, ref, s.reference[i]));
        }
        for (Config cfg : standardConfigs()) {
            const std::string id = taskId(s, wi, configName(cfg));
            ScopedSpan task(rec, "bench.task", id);
            auto src = profiledProgram(w, rec, id, lc);
            Compiled c;
            {
                ScopedSpan span(rec, "compile", id);
                c = compileProgram(*src, compileOptions(cfg));
            }
            if (lc)
                addCompile(*lc, c);
            Memory mem;
            {
                ScopedSpan span(rec, "workloads.build", id);
                loadImage(w, *c.prog, mem, InputKind::Ref);
            }
            TimingResult r;
            {
                ScopedSpan span(rec, "sim.detailed", id);
                r = simulate(*c.prog, mem);
            }
            if (lc)
                addSim(*lc, r);
            chk.task(r.ok && r.ret_value == s.reference[i],
                     r.ok ? mismatch(id, r.ret_value, s.reference[i])
                          : id + ": sim failed: " + r.error);
            p.outcomes[id] = simOutcome(r, c.instrs_final);
            ++p.tasks;
        }
    }
    p.wall_s = (nowNs() - t0) / 1e9;
    if (with_driver)
        checkSame(chk, driver, p.outcomes,
                  "runWorkload at jobs 1 vs the benchmark's replay");
    return p;
}

// ------------------------------------------------------------- metrics

struct Metric
{
    Metric(std::string name_, double value_, std::string unit_,
           int64_t n_ = 1, std::string note_ = {})
        : name(std::move(name_)), value(value_), unit(std::move(unit_)),
          n(n_), note(std::move(note_))
    {
    }

    std::string name;
    double value;
    std::string unit;
    int64_t n;        ///< samples behind the value
    std::string note; ///< e.g. which percentile the tail is
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/**
 * The highest percentile with at least kTailBeyond samples beyond it,
 * or the maximum when that percentile would not exceed the median;
 * `name` says which.
 */
double
tailLatency(std::vector<double> v, std::string *name)
{
    std::sort(v.begin(), v.end());
    if (v.size() < 2 * (kTailBeyond + 1)) {
        *name = "max of " + std::to_string(v.size());
        return v.empty() ? 0 : v.back();
    }
    const size_t idx = v.size() - kTailBeyond - 1;
    char buf[64];
    std::snprintf(buf, sizeof buf, "p%.2f of %zu",
                  100.0 * static_cast<double>(idx + 1) / v.size(), v.size());
    *name = buf;
    return v[idx];
}

std::string
digest(const Outcomes &o)
{
    uint64_t h = fnv1a("perfbench.outcomes.v1");
    for (const auto &[id, t] : o)
        h = fnv1a(id + ":" + std::to_string(t.checksum) + ":" +
                      std::to_string(t.cycles) + ":" +
                      std::to_string(t.ops) + ":" +
                      std::to_string(t.instrs_final) + ";",
                  h);
    return hashHex(h);
}

/** Deterministic totals of one pass, for the cross-run guard. */
std::map<std::string, std::string>
determinism(Kind kind, const Outcomes &o)
{
    uint64_t cycles = 0, ops = 0;
    int64_t instrs = 0;
    for (const auto &[id, t] : o) {
        cycles += t.cycles;
        ops += t.ops;
        instrs += t.instrs_final;
    }
    std::map<std::string, std::string> d;
    d["outcomes_digest"] = digest(o);
    d["compile.instrs_final"] = std::to_string(instrs);
    if (kind == Kind::Fleet) {
        d["sim.cycles"] = std::to_string(cycles);
        d["sim.ops"] = std::to_string(ops);
    }
    return d;
}

// ---------------------------------------------------------------- JSON

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out + "\"";
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ----------------------------------------------------------------- run

struct Context
{
    int nproc = 1;
    int jobs = 1;       ///< threads of the measured work and its set-up
    int verify_jobs = 1; ///< threads of the untimed verification
    std::string cpu;
    std::vector<double> load_start, load_end;
    double calibration_start_s = 0, calibration_end_s = 0;
};

/** Untraced run: the end-to-end metrics. */
std::vector<Metric>
timedRun(const Args &a, const Context &ctx, Check &chk,
         std::map<std::string, std::string> &det)
{
    std::vector<double> setup_s;
    Suite s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const int64_t t0 = nowNs();
        s = setUp(a, ctx.jobs);
        setup_s.push_back((nowNs() - t0) / 1e9);
    }

    std::mt19937_64 rng(a.seed);
    SpanRecorder off(false);
    Kept kept;
    std::vector<double> task_ms;
    Outcomes first;
    int passes = 0;
    int64_t tasks = 0;
    const int64_t t0 = nowNs();
    double elapsed = 0;
    // Whole passes only, so every run holds the same task mix; start
    // another one only while it is expected to end within --seconds.
    do {
        Pass p = a.kind == Kind::Fleet
                     ? fleetPass(s, ctx.jobs, chk)
                     : compilePass(s, taskOrder(s, rng), off, chk, nullptr,
                                   &kept);
        task_ms.insert(task_ms.end(), p.task_ms.begin(), p.task_ms.end());
        tasks += p.tasks;
        if (passes++ == 0)
            first = std::move(p.outcomes);
        else
            checkSame(chk, first, p.outcomes,
                      "pass " + std::to_string(passes) + " vs pass 1");
        elapsed = (nowNs() - t0) / 1e9;
    } while (elapsed + elapsed / passes <= a.seconds);

    if (a.kind == Kind::Compile)
        verifyCompiled(s, kept, passes, ctx.verify_jobs, chk);
    det = determinism(a.kind, first);

    std::string tail_name;
    const double tail = tailLatency(task_ms, &tail_name);
    const std::string latency_of =
        a.kind == Kind::Fleet ? "runSuite pass of 48 tasks"
                              : "one task";
    const int64_t n_lat = static_cast<int64_t>(task_ms.size());
    return {
        {"setup_s", median(setup_s), "s", kSetupReps,
         "median of set-ups"},
        {"tasks_per_s", tasks / elapsed, "1/s", tasks,
         std::to_string(passes) + " passes"},
        {"task_p50_ms", median(task_ms), "ms", n_lat, latency_of},
        {"task_tail_ms", tail, "ms", n_lat, tail_name + ", " + latency_of},
        {"peak_rss_mb", peakRssMb(), "MB", 1, "whole process"},
        {"failed_frac",
         chk.attempted ? static_cast<double>(chk.failed) / chk.attempted : 0,
         "frac", chk.attempted, "failed or mismatched tasks"},
    };
}

/** Traced run: the per-layer metrics. */
std::vector<Metric>
tracedRun(const Args &a, const Context &ctx, Check &chk,
          std::map<std::string, std::string> &det, std::string *recon)
{
    Suite s = setUp(a, ctx.jobs);
    std::mt19937_64 rng(a.seed);
    const std::vector<Task> order =
        a.kind == Kind::Fleet ? std::vector<Task>{} : taskOrder(s, rng);
    SpanRecorder off(false);
    Kept kept;

    // Untraced pass at the workload's job count: the pool metrics.
    const double cpu0 = cpuSeconds();
    const Pass timed =
        a.kind == Kind::Fleet
            ? fleetPass(s, ctx.jobs, chk)
            : compilePass(s, order, off, chk, nullptr, nullptr);
    const double cpu_s = cpuSeconds() - cpu0;

    // The traced calls at jobs 1; their layer calls run again untraced
    // for the overhead (the driver's calls only once: they are one span
    // per workload).
    auto replay = [&](SpanRecorder &r, LayerCounts *lc, Kept *keep) {
        return a.kind == Kind::Fleet
                   ? fleetReplay(s, r, chk, lc, r.enabled())
                   : compilePass(s, order, r, chk, lc, keep);
    };
    SpanRecorder rec(true);
    LayerCounts lc;
    const int64_t w0 = nowNs();
    const Pass traced = replay(rec, &lc, &kept);
    const int64_t w1 = nowNs();
    const perfbench::SelfTimes st = perfbench::selfTimes(rec.spans(), w0, w1);
    // The twin keeps its programs too, so both passes allocate alike.
    Kept twin_kept;
    LayerCounts twin_lc;
    const Pass twin = replay(off, &twin_lc, &twin_kept);

    if (a.kind == Kind::Compile)
        verifyCompiled(s, kept, 3, ctx.verify_jobs, chk);
    checkSame(chk, timed.outcomes, traced.outcomes,
              a.kind == Kind::Fleet
                  ? "fleet at jobs " + std::to_string(ctx.jobs) +
                        " vs its traced jobs-1 replay"
                  : "untraced vs traced pass");
    checkSame(chk, traced.outcomes, twin.outcomes, "traced vs untraced replay");
    if (twin_lc.interp_ops != lc.interp_ops ||
        twin_lc.instrs_final != lc.instrs_final)
        chk.note("determinism drift: layer counts traced vs untraced");
    if (!st.reconciles())
        chk.note("trace does not reconcile: self " +
                 std::to_string(st.selfSum()) + " ns + unattributed " +
                 std::to_string(st.unattributed_ns) + " ns != wall " +
                 std::to_string(st.wall_ns) + " ns");
    *recon = "{\"wall_ns\":" + std::to_string(st.wall_ns) +
             ",\"self_sum_ns\":" + std::to_string(st.selfSum()) +
             ",\"unattributed_ns\":" + std::to_string(st.unattributed_ns) +
             ",\"exact\":" + (st.reconciles() ? "true" : "false") + "}";
    if (!a.trace_out.empty() &&
        !perfbench::writeChromeTrace(a.trace_out, rec.spans(), w0,
                                     "perfbench " + a.workload))
        chk.note("cannot write trace file " + a.trace_out);

    det = determinism(a.kind, traced.outcomes);
    det["interp.ops"] = std::to_string(lc.interp_ops);

    auto self_s = [&](const std::string &name) {
        auto it = st.self_ns.find(name);
        return it == st.self_ns.end() ? 0.0 : it->second / 1e9;
    };
    auto calls = [&](const std::string &name) {
        auto it = st.calls.find(name);
        return it == st.calls.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

    const double build_s = self_s("workloads.build");
    const double profile_s = self_s("interp.profile");
    const double source_s = self_s("interp.source");
    const double compile_s = self_s("compile");
    const double detailed_s = self_s("sim.detailed");
    const double driver_s = self_s("driver.run_workload");

    std::vector<Metric> m;
    m.push_back({"workloads.build_s", build_s, "s"});
    m.push_back({"interp.profile_s", profile_s, "s"});
    m.push_back({"interp.profile_calls", calls("interp.profile"), "count"});
    m.push_back({"interp.source_s", source_s, "s"});
    m.push_back({"interp.ops", static_cast<double>(lc.interp_ops), "count"});
    m.push_back({"interp.mops_per_s",
                 ratio(lc.interp_ops / 1e6, profile_s + source_s), "Mop/s"});
    m.push_back({"compile.busy_s", compile_s, "s"});
    m.push_back({"compile.calls", calls("compile"), "count"});
    double passes_s = 0;
    for (const std::string &g : kPassGroups) {
        const double v = lc.pass_ms.count(g) ? lc.pass_ms.at(g) / 1e3 : 0;
        passes_s += v;
        m.push_back({"compile.pass." + g + "_s", v, "s"});
    }
    m.push_back({"compile.verify_s", lc.verify_ms / 1e3, "s"});
    m.push_back({"compile.unattributed_s",
                 compile_s - passes_s - lc.verify_ms / 1e3, "s"});
    m.push_back({"compile.instrs_final",
                 static_cast<double>(lc.instrs_final), "count"});
    m.push_back({"compile.fallbacks", static_cast<double>(lc.fallbacks),
                 "count"});
    m.push_back({"analysis.hit_ratio",
                 ratio(static_cast<double>(lc.analysis_hits),
                       static_cast<double>(lc.analysis_hits +
                                           lc.analysis_misses)),
                 "frac"});
    m.push_back({"arena.bytes_allocated", static_cast<double>(lc.arena_bytes),
                 "B"});
    m.push_back({"sim.detailed_s", detailed_s, "s"});
    m.push_back({"sim.detailed_calls", calls("sim.detailed"), "count"});
    m.push_back({"sim.detailed_mops_per_s",
                 ratio(lc.sim_ops / 1e6, detailed_s), "Mop/s"});
    m.push_back({"sim.ops", static_cast<double>(lc.sim_ops), "count"});
    m.push_back({"sim.cycles", static_cast<double>(lc.sim_cycles), "cycles"});
    m.push_back({"pool.cpu_s", cpu_s, "s", 1,
                 "untraced pass at jobs " + std::to_string(ctx.jobs)});
    m.push_back({"pool.efficiency", ratio(cpu_s, ctx.jobs * timed.wall_s),
                 "frac"});
    m.push_back({"driver.run_workload_s", driver_s, "s"});
    m.push_back({"driver.unattributed_s",
                 driver_s > 0 ? driver_s - (build_s + profile_s + source_s +
                                            compile_s + detailed_s)
                              : 0,
                 "s"});
    m.push_back({"bench.self_s", self_s("bench.task"), "s", 1,
                 "benchmark code inside task spans"});
    m.push_back({"trace.unattributed_s", st.unattributed_ns / 1e9, "s"});
    m.push_back({"trace.wall_s", st.wall_ns / 1e9, "s"});
    m.push_back({"trace.overhead_frac",
                 ratio(st.wall_ns / 1e9 - driver_s, twin.wall_s) - 1, "frac",
                 1, "traced vs untraced pass of the replayed layer calls"});
    return m;
}

int
run(const Args &a)
{
    Context ctx;
    ctx.nproc = onlineCpus();
    ctx.verify_jobs = std::min(4, ctx.nproc);
    ctx.jobs = a.kind == Kind::Fleet ? ctx.verify_jobs : 1;
    ctx.cpu = cpuModel();
    ctx.load_start = loadAverage();
    ctx.calibration_start_s = calibrate();

    Check chk;
    std::map<std::string, std::string> det;
    std::string recon;
    const std::vector<Metric> metrics =
        a.trace ? tracedRun(a, ctx, chk, det, &recon)
                : timedRun(a, ctx, chk, det);

    ctx.calibration_end_s = calibrate();
    ctx.load_end = loadAverage();

    auto arr = [](const std::vector<double> &v) {
        std::string s = "[";
        for (size_t i = 0; i < v.size(); ++i) {
            if (i)
                s += ",";
            s += jsonNum(v[i]);
        }
        return s + "]";
    };
    std::string out = "{";
    out += "\"workload\":" + jsonStr(a.workload);
    out += ",\"seed\":" + std::to_string(a.seed);
    out += ",\"trace\":" + std::to_string(a.trace ? 1 : 0);
    out += ",\"context\":{\"nproc\":" + std::to_string(ctx.nproc) +
           ",\"jobs\":" + std::to_string(ctx.jobs) +
           ",\"verify_jobs\":" + std::to_string(ctx.verify_jobs) +
           ",\"cpu_model\":" + jsonStr(ctx.cpu) +
           ",\"build_type\":" + jsonStr(PERFBENCH_BUILD_TYPE) +
           ",\"optimized\":" + (kOptimized ? "true" : "false") +
           ",\"loadavg_start\":" + arr(ctx.load_start) +
           ",\"loadavg_end\":" + arr(ctx.load_end) +
           ",\"calibration_start_s\":" + jsonNum(ctx.calibration_start_s) +
           ",\"calibration_end_s\":" + jsonNum(ctx.calibration_end_s) + "}";
    out += ",\"attempted\":" + std::to_string(chk.attempted);
    out += ",\"failed\":" + std::to_string(chk.failed);
    out += ",\"errors\":[";
    for (size_t i = 0; i < chk.errors.size(); ++i)
        out += (i ? "," : "") + jsonStr(chk.errors[i]);
    out += "],\"metrics\":[";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += std::string(i ? "," : "") + "{\"name\":" + jsonStr(m.name) +
               ",\"value\":" + jsonNum(m.value) +
               ",\"unit\":" + jsonStr(m.unit) +
               ",\"n\":" + std::to_string(m.n) +
               ",\"note\":" + jsonStr(m.note) + "}";
    }
    out += "],\"determinism\":{";
    bool first = true;
    for (const auto &[k, v] : det) {
        out += (first ? "" : ",") + jsonStr(k) + ":" + jsonStr(v);
        first = false;
    }
    out += "}";
    if (!recon.empty())
        out += ",\"reconciliation\":" + recon;
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    return chk.failed == 0 && chk.errors.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (!kOptimized) {
        std::fprintf(stderr, "perfbench: refusing to time an unoptimised "
                             "build (configure with -DCMAKE_BUILD_TYPE="
                             "Release)\n");
        return 2;
    }
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
