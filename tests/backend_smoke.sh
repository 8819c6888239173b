#!/usr/bin/env bash
# Three-way kernel-tier smoke: bench/backend_smoke's fused-kernel
# outputs under each tier cap (MNNFAST_KERNELS=scalar, avx2, avx512)
# must match bit for bit. A tier the host lacks prints an explicit
# "skipped" line instead of passing silently.
#
# Usage: tests/backend_smoke.sh <build dir>
set -euo pipefail

bin="$1/bench/backend_smoke"
tdir=$(mktemp -d)
trap 'rm -rf "${tdir}"' EXIT

MNNFAST_KERNELS=scalar "${bin}" > "${tdir}/scalar.txt"
grep -qx 'backend scalar' "${tdir}/scalar.txt"
grep '^score' "${tdir}/scalar.txt" > "${tdir}/scalar.scores"
for tier in avx2 avx512; do
    case "${tier}" in
        avx2) isa=AVX2 ;;
        avx512) isa=AVX-512 ;;
    esac
    MNNFAST_KERNELS="${tier}" "${bin}" > "${tdir}/${tier}.txt"
    if ! grep -qx "backend ${tier}" "${tdir}/${tier}.txt"; then
        echo "backend smoke: ${tier} skipped: no ${isa} on this host"
        continue
    fi
    diff "${tdir}/scalar.scores" <(grep '^score' "${tdir}/${tier}.txt")
    echo "backend smoke: ${tier} matches scalar on" \
         "$(wc -l < "${tdir}/scalar.scores") outputs"
done
