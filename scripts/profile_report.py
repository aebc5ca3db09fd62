#!/usr/bin/env python3
"""Render an epiclab.samples.v2 interval time-series as a phase table.

Usage: profile_report.py SAMPLES.jsonl [--phases N] [--workload W]
                         [--config C]

Reads the JSONL artifact written by `epiclab_run --sample-every N
--samples <path>` and prints, per (workload, config), a table of
execution phases: the sample stream is split into --phases equal-cycle
slices (default 8) and each row shows the Figure-5 cycle-category
percentages for that slice, so phase behaviour (e.g. mcf's
pointer-chase phases, twolf's I-cache-stall front) is visible at a
glance. A final row reconciles the per-category sums against the
stream total.

Malformed input fails with a clear one-line message (never a
traceback, never a silently-ignored NaN), mirroring bench_compare.py.
"""
import argparse
import json
import math
import signal
import sys

# Die quietly when the reader closes early (`profile_report.py | head`).
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# Figure-5 category order, matching cycleCatKey() in src/sim/pmu/pmu.h.
CATEGORIES = [
    "unstalled",
    "float_scoreboard",
    "misc_scoreboard",
    "int_load_bubble",
    "micropipe",
    "front_end_bubble",
    "br_mispred_flush",
    "rse",
    "kernel",
    "alat_recovery",
]

SCHEMA = "epiclab.samples.v2"


class ReportError(Exception):
    """A malformed artifact that must fail with a clear message.

    A samples file with missing fields or NaN values would otherwise
    traceback (unreadable logs) or quietly render nonsense percentages.
    """


def check_number(path, lineno, field, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ReportError(
            f"{path}:{lineno}: field '{field}' is not a number: "
            f"{value!r}")
    if isinstance(value, float) and (math.isnan(value)
                                     or math.isinf(value)):
        raise ReportError(
            f"{path}:{lineno}: field '{field}' is {value} (NaN/inf "
            "measurements must fail, not render)")
    if value < 0:
        raise ReportError(
            f"{path}:{lineno}: field '{field}' is negative ({value}); "
            "interval deltas are unsigned by construction")
    return value


def load(path):
    """Parse the artifact into {(workload, config): [sample, ...]}."""
    try:
        f = open(path)
    except OSError as e:
        raise ReportError(f"cannot read samples file: {e}")
    streams = {}
    with f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ReportError(
                    f"{path}:{lineno}: not valid JSON: {e}")
            if rec.get("schema") != SCHEMA:
                raise ReportError(
                    f"{path}:{lineno}: schema "
                    f"'{rec.get('schema')}' != '{SCHEMA}'")
            for field in ("workload", "config", "seq", "cycles_end",
                          "intervals", "cycles"):
                if field not in rec:
                    raise ReportError(
                        f"{path}:{lineno}: missing field '{field}'")
            cycles = rec["cycles"]
            if not isinstance(cycles, dict):
                raise ReportError(
                    f"{path}:{lineno}: 'cycles' is not an object")
            for cat in CATEGORIES:
                if cat not in cycles:
                    raise ReportError(
                        f"{path}:{lineno}: 'cycles' is missing "
                        f"category '{cat}'")
                check_number(path, lineno, f"cycles.{cat}", cycles[cat])
            check_number(path, lineno, "cycles_end", rec["cycles_end"])
            key = (rec["workload"], rec["config"])
            stream = streams.setdefault(key, [])
            if rec["seq"] != len(stream):
                raise ReportError(
                    f"{path}:{lineno}: sample seq {rec['seq']} out of "
                    f"order (expected {len(stream)}) for "
                    f"{key[0]} [{key[1]}]")
            stream.append(rec)
    if not streams:
        raise ReportError(f"{path}: no {SCHEMA} records found")
    return streams


def split_phases(stream, nphases):
    """Group samples into nphases equal-cycle slices (by cycles_end)."""
    total = stream[-1]["cycles_end"]
    if total <= 0:
        raise ReportError(
            f"stream for {stream[0]['workload']} ends at cycle "
            f"{total}; nothing to report")
    phases = [[] for _ in range(nphases)]
    for rec in stream:
        # Last cycle of the sample decides its phase; the final sample
        # lands in the last phase exactly.
        idx = min(nphases - 1, (rec["cycles_end"] - 1) * nphases // total)
        phases[idx].append(rec)
    return phases


def print_stream(workload, config, stream, nphases):
    total = {cat: sum(r["cycles"][cat] for r in stream)
             for cat in CATEGORIES}
    grand = sum(total.values())
    if grand == 0:
        raise ReportError(
            f"{workload} [{config}]: all cycle categories are zero")
    print(f"\n{workload} [{config}]  —  {stream[-1]['cycles_end']} "
          f"cycles, {len(stream)} sample(s)")
    header = f"{'phase':>6s} {'cycles':>12s}"
    for cat in CATEGORIES:
        header += f" {cat[:10]:>10s}"
    print(header)
    for i, phase in enumerate(split_phases(stream, nphases)):
        if not phase:
            continue
        psum = {cat: sum(r["cycles"][cat] for r in phase)
                for cat in CATEGORIES}
        pgrand = sum(psum.values())
        row = f"{i:>6d} {pgrand:>12d}"
        for cat in CATEGORIES:
            pct = 100.0 * psum[cat] / pgrand if pgrand else 0.0
            row += f" {pct:>9.1f}%"
        print(row)
    row = f"{'total':>6s} {grand:>12d}"
    for cat in CATEGORIES:
        row += f" {100.0 * total[cat] / grand:>9.1f}%"
    print(row)


def main():
    ap = argparse.ArgumentParser(
        description="Render an epiclab.samples.v2 time-series as a "
        "per-phase cycle-category table.")
    ap.add_argument("samples", help="samples JSONL artifact")
    ap.add_argument("--phases", type=int, default=8,
                    help="equal-cycle phases per stream (default 8)")
    ap.add_argument("--workload", help="only streams of this workload")
    ap.add_argument("--config", help="only streams of this config")
    args = ap.parse_args()
    if args.phases < 1:
        print("error: --phases must be >= 1", file=sys.stderr)
        return 2

    try:
        streams = load(args.samples)
        selected = {
            key: stream
            for key, stream in streams.items()
            if (not args.workload or key[0] == args.workload)
            and (not args.config or key[1] == args.config)
        }
        if not selected:
            raise ReportError(
                f"no stream matches workload="
                f"{args.workload or '*'} config={args.config or '*'} "
                f"(available: "
                f"{', '.join(f'{w} [{c}]' for w, c in sorted(streams))})")
        for (workload, config) in sorted(selected):
            print_stream(workload, config, selected[(workload, config)],
                         args.phases)
    except ReportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
