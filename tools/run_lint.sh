#!/usr/bin/env bash
# One-command static-analysis entry point for slipflow.
#
#   tools/run_lint.sh [--build-dir=build] [--mode=strict|contract-only]
#                     [--skip-build] [--json-dir=DIR]
#
# Runs, in order:
#   1. isa_audit          — disassembles every object of the build graph
#                           (compile_commands.json) under <build>/src and
#                           enforces tools/isa_policy.conf (per-TU ISA
#                           ceilings + the no-FMA -ffp-contract=off contract).
#   2. determinism_lint   — source lint over src/lbm src/sim src/transport
#                           src/balance (unordered iteration feeding FP or
#                           messages, pointer-value ordering, wall-clock /
#                           entropy outside the clock seam, unannotated
#                           collectives).
#   3. clang-tidy         — curated .clang-tidy profile over the lbm/sim/
#                           balance/transport sources, via the build dir's
#                           compile_commands.json. Skipped with a notice if
#                           clang-tidy is not installed (CI installs it).
#   4. cppcheck           — skipped likewise when unavailable.
#
# Exit status: non-zero if any available stage reports a violation.
# Unavailable optional stages (clang-tidy, cppcheck) are reported as
# SKIPPED and do not fail the run — CI always has them installed, so
# nothing is silently lost where it matters.

set -u -o pipefail

BUILD_DIR=build
MODE=strict
SKIP_BUILD=0
JSON_DIR=""

for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    --mode=*)      MODE="${arg#*=}" ;;
    --skip-build)  SKIP_BUILD=1 ;;
    --json-dir=*)  JSON_DIR="${arg#*=}" ;;
    -h|--help)     grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "run_lint.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
FAILED=0
[ -n "$JSON_DIR" ] && mkdir -p "$JSON_DIR"

banner() { printf '\n==== %s ====\n' "$1"; }

if [ "$SKIP_BUILD" -eq 0 ]; then
  banner "build analyzers ($BUILD_DIR)"
  cmake -B "$BUILD_DIR" -S . >/dev/null || exit 2
  cmake --build "$BUILD_DIR" -j --target isa_audit determinism_lint || exit 2
fi

ISA_AUDIT="$BUILD_DIR/tools/isa_audit"
DET_LINT="$BUILD_DIR/tools/determinism_lint"
for exe in "$ISA_AUDIT" "$DET_LINT"; do
  if [ ! -x "$exe" ]; then
    echo "run_lint.sh: missing $exe (build the 'tools' targets first)" >&2
    exit 2
  fi
done

banner "isa_audit (mode=$MODE)"
ISA_JSON_ARG=()
[ -n "$JSON_DIR" ] && ISA_JSON_ARG=(--json="$JSON_DIR/isa_audit.json")
if ! "$ISA_AUDIT" --build-dir="$BUILD_DIR" --mode="$MODE" \
      --policy=tools/isa_policy.conf "${ISA_JSON_ARG[@]}"; then
  FAILED=1
fi

banner "determinism_lint"
DET_JSON_ARG=()
[ -n "$JSON_DIR" ] && DET_JSON_ARG=(--json="$JSON_DIR/determinism_lint.json")
if ! "$DET_LINT" --root=. "${DET_JSON_ARG[@]}"; then
  FAILED=1
fi

# clang-tidy needs compile_commands.json; the top-level CMakeLists
# forces CMAKE_EXPORT_COMPILE_COMMANDS on, so it exists for any
# configured build dir.
banner "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "run_lint.sh: $BUILD_DIR/compile_commands.json missing" >&2
    exit 2
  fi
  TIDY_SOURCES=$(git ls-files \
    'src/lbm/*.cpp' 'src/sim/*.cpp' 'src/balance/*.cpp' 'src/transport/*.cpp')
  if ! clang-tidy -p "$BUILD_DIR" --quiet --warnings-as-errors='*' \
        $TIDY_SOURCES; then
    FAILED=1
  fi
else
  echo "clang-tidy not installed — SKIPPED (runs in CI)"
fi

banner "cppcheck"
if command -v cppcheck >/dev/null 2>&1; then
  # --project would re-check vendored/test TUs; scope to the contract
  # directories and rely on the curated suppressions inline.
  if ! cppcheck --enable=warning,performance,portability \
        --error-exitcode=1 --inline-suppr --quiet \
        --suppress=missingIncludeSystem \
        -I src src/lbm src/sim src/balance src/transport; then
    FAILED=1
  fi
else
  echo "cppcheck not installed — SKIPPED (runs in CI)"
fi

banner "summary"
if [ "$FAILED" -ne 0 ]; then
  echo "static analysis: FAIL"
  exit 1
fi
echo "static analysis: OK"
