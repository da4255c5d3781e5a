#!/usr/bin/env bash
# Regenerates bench/out/BENCH_elasticity.json (experiment E2, Fig. 8). The
# bench runs on virtual time, so one run is exact and repeatable; it takes
# about two and a half minutes on one core.
#
# Usage: scripts/bench_elasticity.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
"${1:-build}/bench/bench_elasticity" --json=bench/out/BENCH_elasticity.json
