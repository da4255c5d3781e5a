#!/usr/bin/env bash
# Committed mutants: each tests/mutants/*.patch breaks the code on purpose,
# and its header names the tests that must then fail. This script copies
# the working tree once (tracked and untracked files, no build dirs) into
# ${PREFIX}-mutants/src, builds every named test once, checks that each
# named test passes on the unbroken copy, and then, one patch at a time:
# applies the patch, rebuilds only the targets it names, runs the named
# tests under `timeout` (a hang counts as a failure), requires every one of
# them to fail, and reverses the patch. A patch that no longer applies, a
# mutant that does not build, or a named test that passes fails the leg.
# The repository's own tree is never patched.
#
# Patch header (the lines before the first `diff --git`):
#   Mutant: <what the patch breaks>
#   Origin: <where the mutation was first recorded>
#   Test: <test binary> <gtest filter>      (one line per test that must fail)
#   Timeout: <seconds>                      (optional per-test limit, default 300)
#
# Usage: scripts/mutants.sh [build-dir-prefix] [patch-name-filter]
#   (defaults: build, every patch); e.g. scripts/mutants.sh build 04-
set -euo pipefail
cd "$(dirname "$0")/.."
REPO="$(pwd)"

PREFIX="${1:-build}"
ONLY="${2:-}"
JOBS="$(nproc 2>/dev/null || echo 4)"
GENERATOR_ARGS=()
command -v ninja >/dev/null 2>&1 && GENERATOR_ARGS=(-G Ninja)

WORK="$(realpath -m "${PREFIX}-mutants")"
COPY="${WORK}/src"
BUILD="${WORK}/build"

PATCHES=()
for p in tests/mutants/*.patch; do
  case "$(basename "${p}")" in *"${ONLY}"*) PATCHES+=("${REPO}/${p}") ;; esac
done
if [ "${#PATCHES[@]}" -eq 0 ]; then
  echo "mutants: no patch matches '${ONLY}'" >&2
  exit 1
fi

header() {  # header <patch> <key>: the values of `<key>:` header lines
  sed -n '/^diff --git /q; s/^'"$2"': *//p' "$1"
}

echo "==> mutants: copy the working tree into ${COPY}"
# Files keep their modification times, so a rerun rebuilds only what
# changed since the last copy. A run cut while a patch was applied may
# have left mutant objects that those times would not replace.
if [ -e "${WORK}/applied" ]; then rm -rf "${BUILD}" "${WORK}/applied"; fi
rm -rf "${COPY}"
mkdir -p "${COPY}"
git ls-files -z --cached --others --exclude-standard |
  xargs -0 sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh |
  tar --null -T - -cf - | tar -xf - -C "${COPY}"
# A repository of its own, so `git apply` resolves the patches' paths
# against the copy and never against an enclosing checkout.
git -C "${COPY}" init -q

TARGETS=()
for p in "${PATCHES[@]}"; do
  while read -r bin _; do TARGETS+=("${bin}"); done < <(header "${p}" Test)
done
mapfile -t TARGETS < <(printf '%s\n' "${TARGETS[@]}" | sort -u)

echo "==> mutants: configure + build ${TARGETS[*]}"
build_start=${SECONDS}
cmake -S "${COPY}" -B "${BUILD}" "${GENERATOR_ARGS[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${BUILD}" -j "${JOBS}" --target "${TARGETS[@]}" >/dev/null

binary() {  # the built test binary named $1
  local f
  for f in "${BUILD}/tests/$1" "${BUILD}/tests/chaos/$1"; do
    [ -x "${f}" ] && { echo "${f}"; return; }
  done
  echo "mutants: no test binary $1 under ${BUILD}" >&2
  return 1
}

run_test() {  # run_test <timeout> <binary> <filter>: the test's exit status
  local bin
  bin="$(binary "$2")" || exit 1
  timeout "$1" "${bin}" --gtest_filter="$3" >"${WORK}/last.log" 2>&1
}

echo "==> mutants: the named tests pass on the unbroken copy"
declare -A PASSED=()
for p in "${PATCHES[@]}"; do
  limit="$(header "${p}" Timeout)"
  while read -r bin filter; do
    [ -n "${PASSED["${bin} ${filter}"]:-}" ] && continue
    if ! run_test "${limit:-300}" "${bin}" "${filter}"; then
      tail -20 "${WORK}/last.log" >&2
      echo "mutants: ${bin} ${filter} fails without a mutant" >&2
      exit 1
    fi
    if grep -q '^\[==========\] 0 tests' "${WORK}/last.log"; then
      echo "mutants: ${bin} ${filter} matches no test" >&2
      exit 1
    fi
    PASSED["${bin} ${filter}"]=1
  done < <(header "${p}" Test)
done

escaped=0
total_start=${SECONDS}
for p in "${PATCHES[@]}"; do
  name="$(basename "${p}" .patch)"
  start=${SECONDS}
  if ! git -C "${COPY}" apply --check "${p}" 2>"${WORK}/last.log"; then
    cat "${WORK}/last.log" >&2
    echo "mutants: ${name} no longer applies; refresh the patch" >&2
    exit 1
  fi
  touch "${WORK}/applied"
  git -C "${COPY}" apply "${p}"
  mapfile -t tests < <(header "${p}" Test)
  mapfile -t bins < <(printf '%s\n' "${tests[@]}" | cut -d' ' -f1 | sort -u)
  if ! cmake --build "${BUILD}" -j "${JOBS}" --target "${bins[@]}" \
       >"${WORK}/last.log" 2>&1; then
    tail -20 "${WORK}/last.log" >&2
    git -C "${COPY}" apply -R "${p}"
    echo "mutants: ${name} does not build" >&2
    exit 1
  fi
  limit="$(header "${p}" Timeout)"
  survived=()
  for t in "${tests[@]}"; do
    read -r bin filter <<<"${t}"
    rc=0
    run_test "${limit:-300}" "${bin}" "${filter}" || rc=$?
    [ "${rc}" -eq 0 ] && survived+=("${bin} ${filter}")
  done
  git -C "${COPY}" apply -R "${p}"
  rm "${WORK}/applied"
  if [ "${#survived[@]}" -eq 0 ]; then
    printf 'mutants: %-40s caught by %d test(s) in %3d s\n' \
      "${name}" "${#tests[@]}" $((SECONDS - start))
  else
    printf 'mutants: %-40s ESCAPED %s (%d s)\n' \
      "${name}" "${survived[*]}" $((SECONDS - start))
    escaped=$((escaped + 1))
  fi
done

echo "mutants: ${#PATCHES[@]} mutants in $((SECONDS - total_start)) s" \
  "($((SECONDS - build_start)) s with the first build), ${escaped} escaped"
[ "${escaped}" -eq 0 ]
