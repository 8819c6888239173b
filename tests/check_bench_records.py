#!/usr/bin/env python3
"""Check the committed bench records.

Run from the repository root:

    python3 tests/check_bench_records.py [RECORD ...]

Every BENCH_*.json in the current directory must parse as JSON. Each
RECORD named on the command line must also say where its numbers came
from: a Release build, a SIMD kernel backend (avx2 or avx512), a core
count and a git revision. A record written through
bench::beginProvenance carries them in its "provenance" object; the
google-benchmark record of micro_kernels carries them in its "context".
Exits nonzero, with one line per fault, if any check fails.
"""

import glob
import json
import re
import sys

SIMD_BACKENDS = ("avx2", "avx512")


def provenance(record):
    """(build type, backend, cores, git revision) of a parsed record."""
    if "provenance" in record:
        p = record["provenance"]
        return (p.get("build_type"), p.get("backend"), p.get("nproc"),
                p.get("git_revision"))
    c = record.get("context", {})
    return (c.get("mnnfast_build_type"), c.get("kernel_backend"),
            c.get("num_cpus"), c.get("git_revision"))


def faults(path, record):
    build, backend, cores, rev = provenance(record)
    out = []
    if build != "Release":
        out.append(f"build type {build!r}, not 'Release'")
    if backend not in SIMD_BACKENDS:
        out.append(f"kernel backend {backend!r}, not a SIMD tier")
    if not isinstance(cores, int) or cores < 1:
        out.append(f"core count {cores!r}")
    if not isinstance(rev, str) or not re.fullmatch(r"[0-9a-f]{40}", rev):
        out.append(f"git revision {rev!r}")
    return [f"{path}: {f}" for f in out]


def main(enforced):
    errors = []
    records = {}
    for path in sorted(glob.glob("BENCH_*.json")):
        try:
            with open(path) as f:
                records[path] = json.load(f)
        except ValueError as e:
            errors.append(f"{path}: not valid JSON ({e})")
    for path in enforced:
        if path not in records:
            if not any(e.startswith(path + ":") for e in errors):
                errors.append(f"{path}: no such record")
            continue
        errors.extend(faults(path, records[path]))
    for e in errors:
        print(f"::error::{e}")
    if not errors:
        print(f"{len(records)} records parse; provenance complete in "
              f"{', '.join(enforced) or 'none'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
