#!/usr/bin/env python3
"""EpicLab end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet|compile --seed N --seconds S \\
        --trace 0|1

The first run builds perfbench/ in Release mode under .bench_build/perfbench;
that build compiles the repository's src/ into the same `epiclab` library the
main build makes. The benchmark then runs one workload through EpicLab's
public C++ API with at most min(4, nproc) threads:

  fleet    runSuite(standardConfigs()) at jobs = min(4, nproc): the 12
           stand-ins x {GCC, O-NS, ILP-NS, ILP-CS}, train profile, ref run,
           detailed sim. The paper-regeneration path.
  compile  compileProgram() only: the 12 stand-ins, profiled in set-up, under
           all five configurations (adds ILP-CS-DS), jobs 1.

The stand-ins' train and ref inputs are fixed, so the seed cannot make
held-out inputs: it permutes the task order of compile (fleet keeps
runSuite's order) and is recorded in the output.

--trace 0 measures whole passes for about --seconds and reports the
end-to-end metrics (setup_s is the median of three set-ups; fleet's task
latency is that of one runSuite pass). --trace 1 runs one untraced pass, one
traced pass at jobs 1 and an untraced twin of its layer calls, writes the
spans to .bench_build/traces/ in Chrome trace-event format (Perfetto opens
them) and reports the per-layer metrics.

Every task's architected checksum is compared with the source-run reference;
compile also runs every compiled program in scheduled order. Deterministic
counters must repeat across passes, across runs of the same sources (kept in
.bench_build/state/) and between fleet and its jobs-1 replay. A human-readable
report comes first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
check passed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
STATE_FILE = ROOT / ".bench_build" / "state" / "determinism.json"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ("fleet", "compile")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure once, then build incrementally; return the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"EpicLab sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(jobs())])
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        except FileNotFoundError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from e
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"build timed out: {' '.join(cmd)}") from e
        if code != 0:
            raise BenchError(f"build failed ({code}): {' '.join(cmd)}")
    return BUILD_DIR / "perfbench"


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def source_hash():
    """Hash of everything the benchmark builds: src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_across_runs(workload, det):
    """Compare deterministic counters with earlier runs of these sources.

    Returns drift messages; records new counters for later runs.
    """
    key = f"{workload}@{source_hash()}"
    try:
        state = json.loads(STATE_FILE.read_text())
    except (OSError, ValueError):
        state = {}
    seen = state.setdefault(key, {})
    drift = [f"determinism drift across runs: {k} {seen[k]} -> {v}"
             for k, v in det.items() if k in seen and seen[k] != v]
    if not drift:
        seen.update(det)
        STATE_FILE.parent.mkdir(parents=True, exist_ok=True)
        tmp = STATE_FILE.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        tmp.replace(STATE_FILE)
    return drift


def run_binary(binary, args, extra=()):
    """Run the benchmark binary; return (exit code, its JSON document)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"benchmark timed out after {RUN_TIMEOUT_S} s") from e
    try:
        return code, json.loads(out)
    except ValueError as e:
        raise BenchError(f"benchmark exited {code} without a result") from e


def report(doc, names, drift):
    ctx = doc["context"]
    cal0, cal1 = ctx["calibration_start_s"], ctx["calibration_end_s"]
    lines = [
        f"perfbench workload={doc['workload']} seed={doc['seed']} "
        f"trace={doc['trace']}",
        f"host: nproc={ctx['nproc']} jobs={ctx['jobs']} "
        f"cpu={ctx['cpu_model']!r} build={ctx['build_type']} "
        f"loadavg {ctx['loadavg_start']} -> {ctx['loadavg_end']}",
        f"calibration loop: start {cal0:.4f} s, end {cal1:.4f} s "
        f"(end/start {cal1 / cal0:.3f}); compare runs of one host only",
        f"{'metric':<28} {'value':>16} {'unit':<7} {'n':>6}  note",
    ]
    for m in doc["metrics"]:
        mark = "" if m["name"] in names else "  (report only)"
        lines.append(f"{m['name']:<28} {m['value']:>16.6g} {m['unit']:<7} "
                     f"{m['n']:>6}  {m['note']}{mark}")
    lines.append(f"tasks attempted {doc['attempted']}, failed {doc['failed']}")
    for k, v in sorted(doc["determinism"].items()):
        lines.append(f"determinism {k} = {v}")
    if "reconciliation" in doc:
        r = doc["reconciliation"]
        lines.append(f"reconciliation: self {r['self_sum_ns']} ns + "
                     f"unattributed {r['unattributed_ns']} ns = wall "
                     f"{r['wall_ns']} ns: {'exact' if r['exact'] else 'NO'}")
    for e in doc["errors"] + drift:
        lines.append(f"ERROR {e}")
    print("\n".join(lines))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        spec = benchmark_spec()
        binary = build()
        extra = []
        if args.trace:
            TRACE_DIR.mkdir(parents=True, exist_ok=True)
            extra = ["--trace-out",
                     str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
        code, doc = run_binary(binary, args, extra)
    except BenchError as e:
        log(str(e))
        return 2

    group = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[group]]
    metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
               for m in doc["metrics"]}
    wrong = [m["name"] for m in spec[group]
             if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    if wrong:
        log(f"metrics missing or in other units than BENCHMARK.json: {wrong}")
        return 3

    drift = check_across_runs(args.workload, doc["determinism"])
    report(doc, names, drift)
    correct = (code == 0 and doc["failed"] == 0 and not doc["errors"]
               and not drift)
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: metrics[n] for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
