#!/usr/bin/env bash
# Regenerates bench/out/BENCH_htap_isolation.json (experiment E3, Fig. 9):
# runs bench_htap_isolation's six configs RUNS times and stores every run
# plus the per-config median of each metric across runs. Real threads and
# wall-clock time, so run it on an otherwise idle host; each run takes
# about 50 s on 4 cores.
#
# Usage: scripts/bench_htap.sh [build-dir] [runs]   (default: build, 3)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
RUNS="${2:-3}"
OUT="bench/out"
mkdir -p "${OUT}"

for i in $(seq 1 "${RUNS}"); do
  echo "==> bench_htap_isolation: run ${i}/${RUNS}"
  "${BUILD}/bench/bench_htap_isolation" \
    --json="${OUT}/bench_htap_isolation_run${i}.json"
done

python3 - "$OUT" "$RUNS" <<'PY'
import json, os, statistics, sys
out, runs = sys.argv[1], int(sys.argv[2])
frags = []
for i in range(1, runs + 1):
    with open(os.path.join(out, f"bench_htap_isolation_run{i}.json")) as f:
        frags.append(json.load(f))
median = []
for configs in zip(*(f["configs"] for f in frags)):
    row = {"name": configs[0]["name"]}
    for key, value in configs[0].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            row[key] = statistics.median(c[key] for c in configs)
    median.append(row)
merged = {"experiment": "E3 - HTAP isolation and scalable RO nodes (Fig. 9)",
          "setup": frags[0]["setup"], "runs": runs,
          "median": median, "all_runs": [f["configs"] for f in frags]}
path = os.path.join(out, "BENCH_htap_isolation.json")
with open(path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print("wrote", path)
PY
