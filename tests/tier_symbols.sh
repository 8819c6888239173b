#!/usr/bin/env bash
# Kernel-tier symbol hygiene: the SIMD tiers' objects (kernels_avx2.cc.o,
# kernels_avx512.cc.o) must define no weak symbol (nm type W or V). A
# weak definition there — an inline function or template instantiated
# in the tier, such as std::vector<float>'s destructor — is built with
# that tier's ISA flags, and the linker may keep it as the one copy
# every caller uses, so a host without the ISA could run its code.
#
# Usage: tests/tier_symbols.sh <build dir>
set -euo pipefail

objs=$(find "$1" -path '*mnn_blas.dir*' -name 'kernels_avx*.cc.o' | sort)
if [ -z "${objs}" ]; then
    echo "tier symbols: no kernel-tier objects under $1" >&2
    exit 1
fi
status=0
for obj in ${objs}; do
    weak=$(nm -C --defined-only "${obj}" | awk '$2 == "W" || $2 == "V"')
    if [ -n "${weak}" ]; then
        echo "tier symbols: ${obj} defines weak symbols:"
        echo "${weak}"
        status=1
    else
        echo "tier symbols: $(basename "${obj}") defines no weak symbol"
    fi
done
exit "${status}"
