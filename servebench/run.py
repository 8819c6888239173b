#!/usr/bin/env python3
"""Serving benchmark for the mnnfast stack.

Run from the repository root:

    python3 servebench/run.py --workload dense_f32 --seed 1 --seconds 10 --trace 0

It builds servebench/ (CMake, Release, into .bench_build/servebench),
runs one workload of BENCHMARK.json at that workload's fixed open-loop
rate (the "N req/s" in its `why`), and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) named in BENCHMARK.json. Every served answer is compared
bit for bit with a reference computed by the engines directly.

Each run's full record (metrics, provenance, tuner table) is saved
under .bench_build/servebench-results/<workload>/; compare.py reads
those directories. Refuses to report from a non-Release build or the
scalar kernel backend unless --allow-noncomparable is given, in which
case every metric is marked "comparable": false.
"""

import argparse
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RESULTS = os.path.join(ROOT, ".bench_build", "servebench-results")
BINARY = os.path.join(BUILD, "servebench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def workload_rate(spec, name):
    """The workload's fixed open-loop rate: the one 'N req/s' in its why."""
    for w in spec["workloads"]:
        if w["name"] == name:
            rates = re.findall(r"(\d+(?:\.\d+)?) req/s", w["why"])
            if len(rates) != 1:
                fail(f"workload {name}: its why must state exactly one rate")
            return float(rates[0])
    fail(f"unknown workload {name!r}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("mnnfast sources (src/) not found next to servebench/; "
             "run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})", 1)


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def run_binary(args, rate, out_dir):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rate", repr(rate), "--out-dir", out_dir]
    if args.allow_noncomparable:
        cmd.append("--allow-noncomparable")
    if args.corrupt_one_bit:
        cmd.append("--corrupt-one-bit")
    if args.fail_after_setup:
        cmd.append("--fail-after-setup")
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT)

    def forward(sig, _frame):
        # The binary kills and reaps its node processes on SIGINT/SIGTERM.
        child.send_signal(sig)
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + sig)

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, forward)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    if child.returncode != 0:
        fail(f"benchmark binary exited with code {child.returncode}", 1)
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark binary printed nothing", 1)
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError:
        fail("benchmark binary's last line is not JSON", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--allow-noncomparable", action="store_true",
                    help="report from a non-Release or scalar build; "
                         "metrics are marked non-comparable")
    ap.add_argument("--corrupt-one-bit", action="store_true",
                    help="self-test: the answer check must fail")
    ap.add_argument("--fail-after-setup", action="store_true",
                    help="self-test: exit with an error once the "
                         "servers are up")
    ap.add_argument("--results", default=RESULTS,
                    help="where run records are saved")
    args = ap.parse_args()

    spec = load_spec()
    rate = workload_rate(spec, args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()

    out_dir = os.path.join(args.results, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    notes, rec = run_binary(args, rate, out_dir)
    for line in notes:
        print(line)

    comparable = bool(rec.get("comparable"))
    metrics = {}
    missing = []
    for m in wanted:
        got = rec["metrics"].get(m["name"])
        if got is None or got["value"] is None \
                or not math.isfinite(got["value"]) \
                or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        entry = {"value": got["value"], "unit": got["unit"]}
        if not comparable:
            entry["comparable"] = False
        metrics[m["name"]] = entry
    if missing:
        print(f"servebench: missing or non-finite metrics: {missing}",
              file=sys.stderr)
    attempted = int(rec["attempted"])
    failed = int(rec["failed"])
    correct = failed == 0 and not missing and attempted > 0

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"rate {rate:g} req/s, fail_frac {rec['fail_frac']:.6g} "
          f"({failed}/{attempted})"
          + ("" if comparable else "  [NON-COMPARABLE]"))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")

    rec["git_revision"] = git_revision()
    rec["source_digest"] = source_digest()
    rec["result"] = {"correct": correct, "attempted": attempted,
                     "failed": failed, "metrics": metrics}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(out_dir, f"seed{args.seed}-trace{args.trace}-"
                                 f"{stamp}-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump(rec, f, indent=1)

    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
