#!/usr/bin/env bash
# Build and run the full test suite under each verification preset:
# the default optimized build plus the ASan+UBSan build, so memory
# and UB bugs in the arena/kernel hot paths cannot slip through an
# optimized-only run.
#
# Usage: tests/run_checks.sh [preset...]
#   With no arguments, runs: relwithdebinfo asan-ubsan
#   Pass preset names (see CMakePresets.json) to run a subset, e.g.:
#     tests/run_checks.sh asan-ubsan
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
    presets=(relwithdebinfo asan-ubsan)
fi

jobs=$(nproc 2>/dev/null || echo 2)

# Build directory per configure preset (see CMakePresets.json).
bindir_for() {
    case "$1" in
        release) echo build-release ;;
        relwithdebinfo) echo build ;;
        asan-ubsan) echo build-asan ;;
        tsan) echo build-tsan ;;
        *) echo build ;;
    esac
}

for preset in "${presets[@]}"; do
    echo "==> preset: ${preset}"
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "${jobs}"
    ctest --preset "${preset}" -j "${jobs}"
    # Second pass with the kernel tier capped at scalar: on SIMD hosts
    # the run above exercises the widest vector tier (plus the AVX2
    # tier, through ctest's KernelTiers.Avx2CapBitIdentity leg), so
    # this pins the scalar reference kernels. The dispatched run and
    # this scalar run both execute the fp32, bf16 and int8
    # BitIdenticalToScalarReference suites, which assert the tiers
    # agree bit for bit.
    echo "==> preset: ${preset} (MNNFAST_KERNELS=scalar)"
    MNNFAST_KERNELS=scalar ctest --preset "${preset}" -j "${jobs}"
    bindir="$(bindir_for "${preset}")"
    # Tier symbol hygiene (optimized builds): neither SIMD tier object
    # may define a weak symbol, which the linker could keep as the one
    # copy every caller runs (tests/tier_symbols.sh). The sanitizer
    # builds are not checked: their tier objects carry a weak
    # DW.ref.__gxx_personality_v0 for their exception landing pads.
    case "${preset}" in
        release|relwithdebinfo)
            echo "==> preset: ${preset} (kernel-tier symbol hygiene)"
            tests/tier_symbols.sh "${bindir}"
            ;;
    esac
    # Kernel micro-bench smoke (optimized build only): a short run of
    # the fused-kernel benches, whose single-query cases are the Multi
    # kernels at nq=1, must complete for every precision.
    if [ "${preset}" = "release" ] &&
       [ -x "${bindir}/bench/micro_kernels" ]; then
        echo "==> preset: ${preset} (kernel micro-bench smoke)"
        "${bindir}/bench/micro_kernels" --benchmark_filter=Multi \
            --benchmark_min_time=0.01 \
            --benchmark_out="${bindir}/BENCH_kernels_smoke.json"
    fi
    # Backend smoke: the fused kernels of every precision, run in three
    # processes — MNNFAST_KERNELS=scalar, avx2 and avx512 — must print
    # the same bits. Its batch sizes (nq 1, 2, 3, 4, 5, 7, 8, 9, 15, 16)
    # reach every dot tile, padded odd pair and zero-skip scan path of
    # both SIMD tiers; a tier the host lacks prints a "skipped" line.
    if [ -x "${bindir}/bench/backend_smoke" ]; then
        echo "==> preset: ${preset} (backend smoke)"
        tests/backend_smoke.sh "${bindir}"
    fi
    # Routed-attention smoke: the top-k ablation's k=all leg asserts
    # bit-identity with the unrouted engine across every storage
    # precision, and its sharded leg asserts the routed ShardedEngine
    # equals the routed shard views' merged partials bit for bit —
    # the binary exits nonzero on any violation.
    if [ -x "${bindir}/bench/ablation_topk" ]; then
        echo "==> preset: ${preset} (top-k routing smoke)"
        MNNFAST_BENCH_JSON="${bindir}/BENCH_topk_smoke.json" \
            "${bindir}/bench/ablation_topk" --smoke
    fi
    # Cluster-serving smoke: the loopback scenario grid's bit-identity
    # leg (cluster gather vs the in-process engine whose chunk groups
    # are the shards, every precision), its failover leg (no accepted
    # request lost across injected disconnects), and the pipelined leg
    # (a W=4 window with send-ahead must beat the serial front end on
    # the clean and jittery networks, every batch complete) all exit
    # nonzero on violation.
    if [ -x "${bindir}/bench/serving_cluster" ]; then
        echo "==> preset: ${preset} (cluster serving smoke)"
        MNNFAST_BENCH_JSON="${bindir}/BENCH_cluster_smoke.json" \
            "${bindir}/bench/serving_cluster" --smoke
    fi
    # Cross-process cluster smoke: forks real ShardNode processes
    # serving over TCP on 127.0.0.1 and requires the gathered batch to
    # be bit-identical to the in-process ShardedEngine — both a raw
    # front-end gather per precision and the served leg (LiveServer
    # dispatching through a pipelined W=4 front end, per-question
    # bit-identity plus an exactly balanced admission ledger).
    if [ -x "${bindir}/bench/cluster_smoke" ]; then
        echo "==> preset: ${preset} (cross-process cluster smoke)"
        "${bindir}/bench/cluster_smoke"
    fi
    # Live-server smoke under the leak-checking build: a short
    # low-rate open-loop run whose shutdown must drain every accepted
    # request — ASan flags any promise/thread/arena leaked on the
    # serve or teardown paths.
    if [ "${preset}" = "asan-ubsan" ]; then
        echo "==> preset: ${preset} (live-server smoke)"
        MNNFAST_BENCH_JSON=build-asan/BENCH_serving_smoke.json \
            ./build-asan/bench/serving_live --smoke
        # Sharded-serving smoke: the cooperative scan across the worker
        # pool, every served answer bit-checked against the reference
        # engine (exit 1 on a mismatch), plus the engine-level
        # equivalence column, under the same leak/UB checking.
        echo "==> preset: ${preset} (sharded-serving smoke)"
        MNNFAST_BENCH_JSON=build-asan/BENCH_sharding_smoke.json \
            ./build-asan/bench/ablation_sharding --smoke
    fi
done

echo "all checks passed: ${presets[*]} (simd + scalar kernel tiers)"
