#!/usr/bin/env python3
"""Compares benchmark records written by `perfbench/run.py --out FILE`.

    python3 perfbench/compare.py RUNS.jsonl            # spread of one set
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

Records are grouped by workload (untraced runs only). For each end-to-end
metric of BENCHMARK.json the spread of a set is the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median; a set is steady when every spread except setup_s stays within the
metric's bound. A comparison flags a metric whose NEW median is worse than
the BASE median by more than its bound.

Runs from different hosts are not comparable: every record carries a host
fingerprint (nproc, SIMD dispatch level, build type, compiler), and the
comparison refuses to run when the fingerprints differ. Exit status: 0 when
steady / no regression, 1 otherwise, 2 when refused.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    groups = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if not rec.get("trace"):
                    groups[rec["workload"]].append(rec)
    return groups


def fingerprints(groups):
    return {json.dumps(r["fingerprint"], sort_keys=True)
            for recs in groups.values() for r in recs}


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def spread_report(groups, metrics):
    ok = True
    for workload, recs in sorted(groups.items()):
        bad = [r["seed"] for r in recs if not r["correct"]]
        print(f"{workload}: {len(recs)} runs"
              + (f", INCORRECT on seeds {bad}" if bad else ""))
        ok &= not bad
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in recs]
            if len(values) < 2:
                continue
            med, q1, q3, spread = stats(values)
            within = spread <= m["bound"] or m["name"] == "setup_s"
            ok &= within
            print(f"  {m['name']:16s} median {med:12.5g} {m['unit']:5s} "
                  f"IQR/median {spread:6.3f}  bound {m['bound']:.3f}"
                  f"{'' if within else '  UNSTEADY'}"
                  f"{'' if spread <= m['bound'] / 3 else '  (> bound/3)'}")
    return ok


def compare_report(base, new, metrics):
    ok = True
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}: {len(base[workload])} base runs, "
              f"{len(new[workload])} new runs")
        for m in metrics:
            b = statistics.median(
                r["metrics"][m["name"]]["value"] for r in base[workload])
            n = statistics.median(
                r["metrics"][m["name"]]["value"] for r in new[workload])
            change = (n - b) / b if b else 0.0
            worse = -change if m["better"] == "higher" else change
            regressed = worse > m["bound"]
            ok &= not regressed
            print(f"  {m['name']:16s} {b:12.5g} -> {n:12.5g} {m['unit']:5s} "
                  f"({change:+.1%}, bound {m['bound']:.0%})"
                  f"{'  REGRESSION' if regressed else ''}")
    return ok


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sets = [load(p) for p in argv[1:]]
    prints = set().union(*(fingerprints(s) for s in sets))
    if len(prints) > 1:
        print("refusing to compare runs from different hosts:",
              file=sys.stderr)
        for p in sorted(prints):
            print(f"  {p}", file=sys.stderr)
        return 2
    ok = (spread_report(sets[0], metrics) if len(sets) == 1
          else compare_report(sets[0], sets[1], metrics))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
