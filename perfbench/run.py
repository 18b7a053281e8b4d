#!/usr/bin/env python3
"""Builds and runs the serving benchmark for one workload.

    python3 perfbench/run.py --workload unique_stream --seed 1 --seconds 36 \
        --trace 0 [--out results.jsonl]
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the smol library from the
repository's sources) into .bench_build/; later runs only rebuild what
changed. The workload's fixed parameters come from perfbench/workloads.json;
the metric names and units come from BENCHMARK.json.

Prints every metric by name with its unit, the host fingerprint and the
correctness verdict, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
--out FILE also appends the full record (fingerprint included) to FILE for
perfbench/compare.py. A traced run writes its spans to
.bench_build/trace/<workload>.spans.csv.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    # The Makefile appears only when a configure step succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this file")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]
                              ).returncode

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    if args.workload not in workloads:
        log(f"run.py: unknown workload {args.workload!r}; "
            f"known: {', '.join(sorted(workloads))}")
        return 2
    params = workloads[args.workload]["params"]

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    for key, value in sorted(params.items()):
        if isinstance(value, list):
            value = ",".join(f"{v:g}" for v in value)
        cmd += [f"--{key}", str(value)]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
        cmd += ["--spans",
                os.path.join(BUILD, "trace", f"{args.workload}.spans.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"run.py: perfbench exited with {proc.returncode}; no result")
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("run.py: perfbench printed no result")
        return 1
    record = json.loads(lines[-1])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    measured = record["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"run.py: metric {m['name']} ({m['unit']}) missing or in "
                f"another unit: {got}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    for name, m in measured.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    verdict = "PASS" if record["correct"] else "FAIL"
    print(f"correctness {verdict}: attempted {record['attempted']}, "
          f"failed {record['failed']}")
    for err in record["errors"]:
        print(f"  check failed: {err}")

    if args.out:
        record["trace"] = args.trace
        record["seconds"] = args.seconds
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
