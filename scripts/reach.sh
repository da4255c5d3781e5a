#!/usr/bin/env bash
# Reachability report: which library code no figure reaches.
#
# Builds every target (tests, chaos sweeps, benches, examples, and
# perfbench as its own project) at -O0 with one section per function and
# links with --gc-sections, so each binary keeps only the library
# functions it can reach. It then compares the out-of-line functions of
# namespace polarx in libpolarx.a with those each binary kept, and prints
# the ones no bench, perfbench workload or chaos sweep keeps, in three
# lists: reached by an example (and maybe a unit test), by a unit test
# only, or by nothing. A name stands for all its overloads and template
# instances. Header-only (inline) code is not covered.
#
# It reports and does not gate: some unit-only code is a deliberate test
# seam, and some waits for a caller that a ROADMAP item will wire.
#
# Usage: scripts/reach.sh [build-dir]   (default: build-reach; the two -O0
# builds take ~1.5 min on 4 cores)
set -euo pipefail
cd "$(dirname "$0")/.."

DIR="${1:-build-reach}"
JOBS="$(nproc 2>/dev/null || echo 4)"
FLAGS=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

echo "==> reach: -O0 builds in ${DIR}" >&2
cmake -B "${DIR}/main" -S . "${FLAGS[@]}" >/dev/null
cmake --build "${DIR}/main" -j "${JOBS}" >/dev/null
cmake -B "${DIR}/perfbench" -S perfbench "${FLAGS[@]}" >/dev/null
cmake --build "${DIR}/perfbench" -j "${JOBS}" >/dev/null

python3 - "${DIR}" <<'PY'
import glob, os, subprocess, sys

d = sys.argv[1]

def functions(path):
    """Mangled names of the functions of namespace polarx defined in
    `path` (their lambdas and the std:: helpers made for them excluded)."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "Tt" and \
                parts[2].startswith(("_ZN6polarx", "_ZNK6polarx")):
            names.add(parts[2])
    return names

def binaries(pattern):
    return sorted(p for p in glob.glob(pattern)
                  if os.path.isfile(p) and os.access(p, os.X_OK))

def qualified_name(demangled):
    """The function's qualified name without its parameter list."""
    depth, i = 0, 0
    while i < len(demangled):
        if demangled.startswith("(anonymous namespace)", i):
            i += len("(anonymous namespace)")
            continue
        if depth == 0 and demangled.startswith("operator", i):
            j = demangled.find("(", i + len("operator"))
            return demangled[:j + 2 if demangled.startswith("()", j) else j]
        c = demangled[i]
        depth += (c == "<") - (c == ">")
        if c == "(" and depth == 0:
            return demangled[:i]
        i += 1
    return demangled

lib = functions(os.path.join(d, "main", "src", "libpolarx.a"))
mangled = sorted(lib)
demangled = subprocess.run(["c++filt"], input="\n".join(mangled), check=True,
                           capture_output=True, text=True).stdout.split("\n")
name = {m: qualified_name(n) for m, n in zip(mangled, demangled)}

groups = {
    "figure": binaries(os.path.join(d, "main", "bench", "bench_*")) +
              binaries(os.path.join(d, "main", "tests", "chaos", "*_test")) +
              binaries(os.path.join(d, "perfbench", "polarx_perfbench")),
    "example": binaries(os.path.join(d, "main", "examples", "example_*")),
    "unit": binaries(os.path.join(d, "main", "tests", "*_test")),
}
reached = {g: {} for g in groups}  # group -> function -> binaries
for g, paths in groups.items():
    for p in paths:
        for f in functions(p) & lib:
            reached[g].setdefault(f, set()).add(os.path.basename(p))

figure = set(reached["figure"])
example = set(reached["example"]) - figure
unit = set(reached["unit"]) - figure - example
nothing = lib - figure - example - unit

print("reach: %d out-of-line polarx functions in libpolarx.a, %d reached "
      "by a bench, perfbench or a chaos sweep" % (len(lib), len(figure)))
for title, found, g in (("reached only by an example", example, "example"),
                        ("reached only by a unit test", unit, "unit"),
                        ("reached by nothing", nothing, None)):
    users = {}  # qualified name -> the binaries that reach it
    for f in found:
        users.setdefault(name[f], set()).update(reached[g][f] if g else ())
    print("\n%s (%d functions):" % (title, len(found)))
    for n in sorted(users):
        print("  %s%s" % (n, "  [%s]" % ", ".join(sorted(users[n]))
                          if users[n] else ""))
PY
