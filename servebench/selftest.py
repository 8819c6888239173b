#!/usr/bin/env python3
"""Self-tests of the serving benchmark itself (not of the stack it measures).

    python3 servebench/selftest.py [--quick]

Checks, each printing PASS or FAIL:
  inputs      --input-digest is equal for equal seeds, different otherwise
  names       the metrics a run emits are exactly BENCHMARK.json's, with
              its units, traced and untraced, for every workload
              (--quick: cluster_tcp, untraced only)
  corruption  a one-bit corruption of one reference answer is caught
  children    no ShardNode process outlives the benchmark after a normal
              exit, a failure exit, SIGINT, or SIGKILL of the benchmark
  bare        with only BENCHMARK.json and servebench/ present the
              command exits nonzero without printing a result
Exits nonzero if any check fails. Scratch output goes under
.bench_build/selftest.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build and paths)

SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
RESULTS = os.path.join(SCRATCH, "results")
failures = []


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f": {detail}" if detail
                                                    else ""))
    if not ok:
        failures.append(name)


def bench(*args, **kw):
    """run.py with args; returns (returncode, last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--results",
           RESULTS, *args]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       **kw)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (lines[-1] if lines else "")


def node_pids():
    """PIDs of live ShardNode processes started by the benchmark."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
            with open(f"/proc/{entry}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if argv and argv[0] == b"servebench" and b"--node" in argv \
                and state != "Z":
            pids.append(int(entry))
    return pids


def wait_for(pred, timeout):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if pred():
            return True
        time.sleep(0.05)
    return pred()


def test_inputs():
    def digest(workload, seed):
        return subprocess.run(
            [run.BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "10", "--rate", "100", "--input-digest"],
            capture_output=True, text=True, check=True).stdout.strip()
    for w in ("dense_f32", "cluster_tcp"):
        a, b, c = digest(w, 5), digest(w, 5), digest(w, 6)
        check(f"inputs {w}", a == b and a != c, f"{a} {b} {c}")


def test_names(spec, quick):
    workloads = [w["name"] for w in spec["workloads"]]
    traces = (0,) if quick else (0, 1)
    if quick:
        workloads = [w for w in workloads if w != "dense_f32"]
    for w in workloads:
        for trace in traces:
            code, line = bench("--workload", w, "--seed", "3",
                               "--seconds", "2", "--trace", str(trace))
            want = spec["per_layer"] if trace else spec["end_to_end"]
            try:
                res = json.loads(line)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                ok = (code == 0 and res["correct"]
                      and set(res) == {"correct", "attempted", "failed",
                                       "metrics"}
                      and got == {m["name"]: m["unit"] for m in want})
                detail = "" if ok else f"code {code}, got {sorted(got)}"
            except (ValueError, KeyError) as e:
                ok, detail = False, f"code {code}, {e}"
            check(f"names {w} trace {trace}", ok, detail)
    check("children after normal exits", not node_pids(), str(node_pids()))


def test_corruption():
    code, line = bench("--workload", "cluster_tcp", "--seed", "4",
                       "--seconds", "1", "--corrupt-one-bit")
    try:
        res = json.loads(line)
        ok = code == 0 and not res["correct"] and res["failed"] >= 1
        detail = f"failed {res['failed']} of {res['attempted']}"
    except ValueError:
        ok, detail = False, f"code {code}, no result"
    check("corruption caught", ok, detail)


def start_cluster():
    p = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--results", RESULTS,
         "--workload", "cluster_tcp", "--seed", "9", "--seconds", "60"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=ROOT)
    up = wait_for(lambda: len(node_pids()) >= 2, 120)
    return p, up


def test_children():
    code, _ = bench("--workload", "cluster_tcp", "--seed", "8",
                    "--seconds", "2", "--fail-after-setup")
    check("children after failure exit",
          code != 0 and wait_for(lambda: not node_pids(), 10),
          f"code {code}, left {node_pids()}")

    p, up = start_cluster()
    p.send_signal(signal.SIGINT)
    code = p.wait(timeout=30)
    check("children after SIGINT",
          up and code != 0 and wait_for(lambda: not node_pids(), 10),
          f"nodes were up: {up}, code {code}, left {node_pids()}")

    p, up = start_cluster()
    parents = set()
    for pid in node_pids():
        with open(f"/proc/{pid}/stat") as f:
            parents.add(int(f.read().rsplit(")", 1)[1].split()[1]))
    for pid in parents:
        os.kill(pid, signal.SIGKILL)
    code = p.wait(timeout=30)
    check("children after SIGKILL of the benchmark",
          up and len(parents) == 1
          and wait_for(lambda: not node_pids(), 10),
          f"nodes were up: {up}, left {node_pids()}")


def test_bare():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "servebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "cluster_tcp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    check("bare checkout refuses", p.returncode != 0
          and '"correct"' not in p.stdout, f"code {p.returncode}")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    quick = "--quick" in sys.argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()
    os.makedirs(RESULTS, exist_ok=True)
    test_inputs()
    test_names(spec, quick)
    test_corruption()
    test_children()
    test_bare()
    print("all self-tests passed" if not failures
          else f"{len(failures)} self-test(s) failed: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
