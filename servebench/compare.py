#!/usr/bin/env python3
"""Compare two sets of servebench runs, or report one set's stability.

    python3 servebench/compare.py BASE [NEW]

BASE and NEW are results directories written by run.py (default
.bench_build/servebench-results): <workload>/*.json run records. Only
untraced runs (--trace 0) count.

With one directory it prints, per workload x end-to-end metric, the
run count, median, quartiles and spread (quartile distance / median)
against the metric's bound in BENCHMARK.json, and every kernel-tuner
plan that differed between runs (plans are measured afresh in each
run, never pinned, so a drifting plan is reported here).

With two it prints, per workload x metric, each side's median and
quartiles, the share of pairs (matched by seed) the new side wins,
and a verdict:
  worse       the new median is worse than the base median by more
              than the bound
  better      the new side wins at least 9 of 10 pairs and the medians
              differ by more than the base's quartile distance
  unresolved  neither, and the base spread is wider than the bound
  same        neither, and the base spread is within the bound
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{workload: [record, ...]} of the untraced runs under directory."""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        sub = os.path.join(directory, workload)
        if not os.path.isdir(sub):
            continue
        for name in sorted(os.listdir(sub)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(sub, name)) as f:
                rec = json.load(f)
            if rec.get("trace") == 0 and "result" in rec:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(recs, name):
    """(seed, value) of every run that reported the metric."""
    out = []
    for r in recs:
        m = r["result"]["metrics"].get(name)
        if m is not None:
            out.append((r["seed"], m["value"]))
    return out


def plan_drift(recs):
    """Tuner plans that differed between runs: {key: {plan: count}}."""
    seen = {}
    for r in recs:
        for e in r.get("tuner", {}).get("entries", []):
            key = (e["precision"], e["ed"], e["nq"])
            plan = (e["strip_rows"], e["prefetch_stride"])
            seen.setdefault(key, {}).setdefault(plan, 0)
            seen[key][plan] += 1
    return {k: v for k, v in seen.items() if len(v) > 1}


def stability(runs, spec):
    for workload, recs in sorted(runs.items()):
        print(f"{workload}: {len(recs)} runs, "
              f"{sum(not r['result']['correct'] for r in recs)} incorrect")
        for m in spec["end_to_end"]:
            values = [v for _, v in series(recs, m["name"])]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "ok" if spread <= m["bound"] else "TOO WIDE"
            print(f"  {m['name']:12s} {med:12.5g} {m['unit']:6s} "
                  f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f} "
                  f"bound {m['bound']} {verdict}")
        for key, plans in sorted(plan_drift(recs).items()):
            desc = ", ".join(f"strip {s} prefetch {p} x{n}"
                             for (s, p), n in sorted(plans.items()))
            print(f"  tuner plan differed between runs for "
                  f"{key[0]} ed={key[1]} nq={key[2]}: {desc}")


def verdict(base, new, m):
    """(verdict, wins, pairs) for one metric; values as (seed, v)."""
    lower = m["better"] == "lower"
    b = [v for _, v in base]
    n = [v for _, v in new]
    bq1, bmed, bq3 = quartiles(b)
    _, nmed, _ = quartiles(n)
    new_by_seed = dict(new)
    pairs = [(v, new_by_seed[s]) for s, v in base if s in new_by_seed]
    if not pairs:
        pairs = list(zip(b, n))
    wins = sum((nv < bv) if lower else (nv > bv) for bv, nv in pairs)
    worse_by = (nmed - bmed) if lower else (bmed - nmed)
    spread = (bq3 - bq1) / bmed if bmed else 0.0
    if bmed and worse_by / abs(bmed) > m["bound"]:
        return "worse", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and abs(nmed - bmed) > (bq3 - bq1) \
            and worse_by < 0:
        return "better", wins, len(pairs)
    return ("unresolved" if spread > m["bound"] else "same"), wins, \
        len(pairs)


def compare(base_runs, new_runs, spec):
    print(f"{'workload':12s} {'metric':12s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'wins':>7s} verdict")
    for workload in sorted(set(base_runs) | set(new_runs)):
        if workload not in base_runs or workload not in new_runs:
            print(f"{workload:12s} (only in one set)")
            continue
        for m in spec["end_to_end"]:
            base = series(base_runs[workload], m["name"])
            new = series(new_runs[workload], m["name"])
            if not base or not new:
                continue
            v, wins, pairs = verdict(base, new, m)
            bq = quartiles([x for _, x in base])
            nq = quartiles([x for _, x in new])
            print(f"{workload:12s} {m['name']:12s} "
                  f"{bq[1]:12.5g} [{bq[0]:.4g}, {bq[2]:.4g}] "
                  f"{nq[1]:12.5g} [{nq[0]:.4g}, {nq[2]:.4g}] "
                  f"{wins:3d}/{pairs:<3d} {v}")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = load_runs(sys.argv[1])
    if len(sys.argv) == 2:
        stability(base, spec)
    else:
        compare(base, load_runs(sys.argv[2]), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
