#!/usr/bin/env python3
"""Cross-validate sampled-mode extrapolation against a detailed run.

Usage: sampled_compare.py DETAILED.jsonl SAMPLED.jsonl
           [--max-err 0.05] [--min-share 0.01]

Both inputs are epiclab.run.v2 JSONL artifacts over the same workload x
config set — DETAILED from a --sim-mode=detailed (default) run, SAMPLED
from --sim-mode=sampled. For every (workload, config) pair present in
both, the sampled record's sim.sampled.est.<cat> extrapolation is
compared against the detailed record's measured sim.cycles.<cat>, and
the gate fails when any category's relative error exceeds --max-err.

Categories carrying less than --min-share of the detailed run's total
cycles are reported but not gated: a category worth 0.1% of the run can
legitimately show large *relative* error from a handful of cycles
landing in or out of a detail window, and gating it would make the
check flaky without protecting anything a reader of Figure 5 would see.
The total-cycles estimate (sim.sampled.est_total vs sim.cycles_total)
is always gated.

The harness also checks the structural contract: every sampled record
must carry sim.sampled.* keys (a record without them means the run
silently fell back to detailed mode), and the extrapolation must
declare full coverage (total_ops >= detail_ops > 0).
"""
import argparse
import json
import sys


class CompareError(Exception):
    """Malformed input that must fail the gate with a clear message."""


def load(path):
    """Read a run.v2 JSONL artifact into {(workload, config): stats}."""
    recs = {}
    try:
        with open(path) as f:
            lines = [ln for ln in f if ln.strip()]
    except OSError as e:
        raise CompareError(f"cannot read artifact: {e}")
    if not lines:
        raise CompareError(f"{path}: empty artifact")
    for ln in lines:
        try:
            r = json.loads(ln)
        except json.JSONDecodeError as e:
            raise CompareError(f"{path}: bad JSONL line: {e}")
        if r.get("schema") != "epiclab.run.v2":
            raise CompareError(
                f"{path}: unexpected schema {r.get('schema')!r}")
        if not r.get("ok"):
            raise CompareError(
                f"{path}: run {r.get('workload')}/{r.get('config')} "
                f"failed: {r.get('error')!r}")
        recs[(r["workload"], r["config"])] = r["stats"]
    return recs


def check_pair(key, det, smp, args, rows):
    """Gate one (workload, config) pair; returns list of violations."""
    bad = []
    wl = f"{key[0]} [{key[1]}]"
    if "sim.sampled.windows" not in smp:
        return [f"{wl}: sampled record carries no sim.sampled.* keys "
                "(did the run actually use --sim-mode=sampled?)"]
    d_ops = smp["sim.sampled.detail_ops"]
    t_ops = smp["sim.sampled.total_ops"]
    if not (0 < d_ops <= t_ops):
        return [f"{wl}: bad coverage detail_ops={d_ops} "
                f"total_ops={t_ops}"]

    det_total = det["sim.cycles_total"]
    if det_total <= 0:
        return [f"{wl}: detailed record has no cycles"]

    cats = sorted(k.split("sim.sampled.est.")[1] for k in smp
                  if k.startswith("sim.sampled.est."))
    for cat in cats:
        est = smp[f"sim.sampled.est.{cat}"]
        true = det[f"sim.cycles.{cat}"]
        share = true / det_total
        err = abs(est - true) / true if true else (1.0 if est else 0.0)
        gated = share >= args.min_share
        rows.append((wl, cat, true, est, share, err, gated))
        if gated and err > args.max_err:
            bad.append(f"{wl}: {cat} relative error {err:.1%} > "
                       f"{args.max_err:.0%} (true {true}, est {est}, "
                       f"share {share:.1%})")
    est_total = smp["sim.sampled.est_total"]
    terr = abs(est_total - det_total) / det_total
    rows.append((wl, "TOTAL", det_total, est_total, 1.0, terr, True))
    if terr > args.max_err:
        bad.append(f"{wl}: total-cycles error {terr:.1%} > "
                   f"{args.max_err:.0%} (true {det_total}, "
                   f"est {est_total})")
    return bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("detailed")
    ap.add_argument("sampled")
    ap.add_argument("--max-err", type=float, default=0.05,
                    help="max per-category relative error (default 5%%)")
    ap.add_argument("--min-share", type=float, default=0.01,
                    help="categories below this share of total cycles "
                         "are reported but not gated (default 1%%)")
    args = ap.parse_args()

    try:
        det = load(args.detailed)
        smp = load(args.sampled)
    except CompareError as e:
        print(f"sampled_compare: FAIL: {e}", file=sys.stderr)
        return 1

    common = sorted(set(det) & set(smp))
    if not common:
        print("sampled_compare: no common (workload, config) pairs",
              file=sys.stderr)
        return 1

    rows, bad = [], []
    for key in common:
        bad += check_pair(key, det[key], smp[key], args, rows)

    print(f"{'run':24s} {'category':18s} {'detailed':>12s} "
          f"{'estimate':>12s} {'share':>6s} {'err':>7s}")
    for wl, cat, true, est, share, err, gated in rows:
        note = "" if gated else "  (below --min-share, not gated)"
        print(f"{wl:24s} {cat:18s} {true:12d} {est:12d} "
              f"{share:6.1%} {err:7.2%}{note}")

    if bad:
        print("", file=sys.stderr)
        for b in bad:
            print(f"sampled_compare: FAIL: {b}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(common)} run(s) within {args.max_err:.0%} "
          "per-category error")
    return 0


if __name__ == "__main__":
    sys.exit(main())
