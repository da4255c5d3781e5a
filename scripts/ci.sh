#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite, then an
# AddressSanitizer+UBSan build running the chaos label on fixed seeds
# (one representative schedule per suite keeps the ASan pass fast while
# still exercising every fault path; the full 50-seed sweeps run in the
# regular build above), then a ThreadSanitizer build running the suites
# whose code shares state between real threads, then the committed mutants
# (scripts/mutants.sh). Between the regular build and ASan, the E4 bench's
# work counters must equal its committed JSON.
#
# Usage: scripts/ci.sh [build-dir-prefix]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
GENERATOR_ARGS=()
command -v ninja >/dev/null 2>&1 && GENERATOR_ARGS=(-G Ninja)

echo "==> tier-1: configure + build (${PREFIX})"
cmake -B "${PREFIX}" "${GENERATOR_ARGS[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${PREFIX}" -j "${JOBS}"

echo "==> tier-1: full test suite"
ctest --test-dir "${PREFIX}" --output-on-failure

echo "==> bench-smoke: ablation knobs + JSON emission"
# Each bench runs its grid in --smoke shape (seconds of virtual time, or a
# tiny TPC-H/TPC-C scale for the AP benches); a crash, a rejected flag, or an
# unwritable JSON fails the test, and an empty JSON artifact fails the
# check below.
ctest --test-dir "${PREFIX}" -L bench-smoke --output-on-failure
for b in bench_replication bench_paxos_ablation bench_cross_dc_txn \
         bench_mpp_colindex bench_htap_isolation bench_elasticity; do
  f="${PREFIX}/bench/out/${b}_smoke.json"
  if [ ! -s "${f}" ]; then
    echo "bench-smoke: ${f} missing or empty" >&2
    exit 1
  fi
done
# Every E5 cell of bench_cross_dc_txn carries its commit-path breakdown,
# and the client-path stages (statements, which include the CN overhead,
# prepare and decide) account for the cell's mean latency within 2%.
python3 - "${PREFIX}/bench/out/bench_cross_dc_txn_smoke.json" <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["grid"]
for c in cells:
    b = c.get("breakdown")
    if b is None:
        sys.exit("bench-smoke: cell without a breakdown: %s" % c)
    path = b["statements_ms"] + b["prepare_ms"] + b["decide_ms"]
    mean = c["mean_latency_ms"]
    if abs(path - mean) > 0.02 * mean:
        sys.exit("bench-smoke: stages sum to %.4f ms, mean latency is "
                 "%.4f ms: %s" % (path, mean, c))
print("bench-smoke: breakdown accounts for the mean latency in %d cells"
      % len(cells))
EOF
# Its per-scheme cells show each scheme's commit point: HLC-SI acknowledges
# once every branch is prepared (no decide stage) and commits single-DN
# writes in one phase; TSO-SI keeps its decide stage and never does.
python3 - "${PREFIX}/bench/out/bench_cross_dc_txn_smoke.json" <<'EOF'
import json, sys
cells = {c["scheme"]: c for c in json.load(open(sys.argv[1]))["schemes"]}
for name, c in sorted(cells.items()):
    b = c["breakdown"]
    path = b["statements_ms"] + b["prepare_ms"] + b["decide_ms"]
    if abs(path - c["mean_latency_ms"]) > 0.02 * c["mean_latency_ms"]:
        sys.exit("bench-smoke: %s stages sum to %.4f ms: %s" % (name, path, c))
hlc, tso = cells["hlc_si"]["breakdown"], cells["tso_si"]["breakdown"]
if hlc["decide_ms"] != 0 or not hlc["one_phase_share"] > 0:
    sys.exit("bench-smoke: HLC-SI must have decide_ms == 0 and one-phase "
             "commits: %s" % hlc)
if not tso["decide_ms"] > 0 or tso["one_phase_share"] != 0:
    sys.exit("bench-smoke: TSO-SI must keep its decide stage and no "
             "one-phase commits: %s" % tso)
print("bench-smoke: HLC-SI decide 0 ms, one-phase share %.3f; TSO-SI "
      "decide %.3f ms" % (hlc["one_phase_share"], tso["decide_ms"]))
EOF
# E2 runs on virtual time, so a second smoke run must write the same bytes.
# Each scaling's time must equal its slowest (src, dst) pair's summed
# per-move step times within 1%, and no arm may report a transaction that
# completed without its tenant lease.
E2_SMOKE="${PREFIX}/bench/out/bench_elasticity_smoke.json"
"${PREFIX}/bench/bench_elasticity" --smoke \
  --json="${PREFIX}/bench/out/bench_elasticity_smoke_rerun.json" >/dev/null
cmp "${E2_SMOKE}" "${PREFIX}/bench/out/bench_elasticity_smoke_rerun.json"
python3 - "${E2_SMOKE}" <<'EOF'
import json, sys
arms = json.load(open(sys.argv[1]))["arms"]
steps = ("copy_ms", "drain_ms", "flush_ms", "rebind_ms", "open_ms")
for arm in arms:
    if arm["lease_violations"] != 0:
        sys.exit("bench-smoke: %s arm has lease violations" % arm["arm"])
    for s in arm["scalings"]:
        slowest = max(sum(p[k] for k in steps) for p in s["pairs"])
        total = s["scaling_s"] * 1000
        if abs(slowest - total) > 0.01 * total:
            sys.exit("bench-smoke: %s scaling %d->%d takes %.3f ms, its "
                     "slowest pair's steps sum to %.3f ms"
                     % (arm["arm"], s["rws_before"], s["rws_after"], total,
                        slowest))
print("bench-smoke: E2 scaling times match their slowest pair in %d scalings"
      % sum(len(a["scalings"]) for a in arms))
EOF

echo "==> e4-counters: E4 work counters equal the committed JSON"
# The AP path's deterministic work counters (rows reaching a join probe,
# rows a runtime filter pruned at a scan) for every TPC-H query, in all four
# E4 modes (single-node row and column, MPP row and column, the MPP ones
# summed over the tasks), at the committed scale with runtime filters on
# and off. Timings vary by host; these counts may only change together with
# a regenerated bench/out/BENCH_mpp_colindex.json (scripts/bench_ap_path.sh).
for rf in on off; do
  "${PREFIX}/bench/bench_mpp_colindex" --reps=1 --runtime_filters="${rf}" \
    --json="${PREFIX}/bench/out/e4_counters_rf_${rf}.json" >/dev/null
done
python3 - bench/out/BENCH_mpp_colindex.json \
  "${PREFIX}/bench/out/e4_counters_rf_on.json" \
  "${PREFIX}/bench/out/e4_counters_rf_off.json" <<'EOF'
import json, sys
ref = json.load(open(sys.argv[1]))
counters = ("single_join_probe_rows", "single_scan_rows_dropped",
            "column_join_probe_rows", "column_scan_rows_dropped",
            "mpp_join_probe_rows", "mpp_scan_rows_dropped",
            "mpp_column_join_probe_rows", "mpp_column_scan_rows_dropped")
checked, differing = 0, 0
for rf, path in (("on", sys.argv[2]), ("off", sys.argv[3])):
    want = {q["q"]: q for q in ref["runtime_filters_" + rf]["queries"]}
    got = {q["q"]: q for q in json.load(open(path))["queries"]}
    if sorted(got) != sorted(want):
        sys.exit("e4-counters: rf=%s ran queries %s, committed %s"
                 % (rf, sorted(got), sorted(want)))
    for q in sorted(want):
        for c in counters:
            if got[q][c] != want[q][c]:
                print("e4-counters: rf=%s Q%d %s is %d, committed %d"
                      % (rf, q, c, got[q][c], want[q][c]))
                differing += 1
            checked += 1
if differing:
    sys.exit("e4-counters: %d of %d work counters differ from the committed "
             "E4 JSON" % (differing, checked))
print("e4-counters: %d work counters equal the committed E4 JSON" % checked)
EOF

echo "==> asan: configure + build (${PREFIX}-asan)"
cmake -B "${PREFIX}-asan" "${GENERATOR_ARGS[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPOLARX_SANITIZE=ON
cmake --build "${PREFIX}-asan" -j "${JOBS}"

echo "==> asan: chaos label on fixed seeds"
# Each chaos suite honors POLARX_CHAOS_SEED, replaying exactly one
# deterministic schedule instead of its full sweep.
for seed in 7 19 43; do
  echo "---- chaos sweep under ASan, seed ${seed}"
  POLARX_CHAOS_SEED="${seed}" \
    ctest --test-dir "${PREFIX}-asan" -L chaos --output-on-failure
done

echo "==> asan: executor / runtime-filter / column-join / 2PC / SimCluster units"
# The bloom filter and the column hash join lean on raw hashing and
# selection-vector slicing, and the key table that joins and aggregations
# share (KeyWordTable) indexes flat arrays by computed slots; the 2PC
# coordinator and in-doubt resolver carry shared transaction state between
# continuations. Their unit suites run them over the tests' inline
# transport (tests/txn_cluster.h), which answers each call inside the
# caller's stack, and SimCluster's footprint tests (workload_test) run them
# over simulated RPCs. Run these suites under ASan+UBSan too.
ctest --test-dir "${PREFIX}-asan" \
  -R 'exec_test|runtime_filter_test|colindex_test|column_agg_test|distributed_txn_test|txn_recovery_test|workload_test' \
  --output-on-failure

echo "==> tsan: configure + build (${PREFIX}-tsan)"
cmake -B "${PREFIX}-tsan" "${GENERATOR_ARGS[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPOLARX_SANITIZE=thread
cmake --build "${PREFIX}-tsan" -j "${JOBS}" --target \
  exec_test tpch_test colindex_test column_agg_test htap_router_test

echo "==> tsan: executor, MPP, column index and HTAP routing"
# MppExecutor and QueryScheduler run operators on pool threads, MPP
# fragments read one ColumnIndex concurrently under its shared lock, the
# joins of a broadcast site probe one shared JoinHashTable (exec_test's
# SharedJoinTableBuildsOnceForAllTasks), and column_agg_test aggregates
# over an index while another thread commits to it; a data race in any of
# them fails these suites under TSan.
ctest --test-dir "${PREFIX}-tsan" \
  -R '^(exec_test|tpch_test|colindex_test|column_agg_test|htap_router_test)$' \
  --output-on-failure

echo "==> mutants: every committed mutant is caught (${PREFIX}-mutants)"
# Outside tier-1, because it rebuilds once per mutant: each
# tests/mutants/*.patch breaks the code on purpose, and every test its
# header names must fail against it.
scripts/mutants.sh "${PREFIX}"

echo "==> ci.sh: all green"
