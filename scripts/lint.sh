#!/usr/bin/env bash
# Static-analysis gate (see docs/STATIC_ANALYSIS.md).
#
#   scripts/lint.sh            sfq-lint + clang-format drift + clang-tidy +
#                              clang --analyze + clang -Werror=thread-safety
#   scripts/lint.sh --quick    skips clang-tidy and clang --analyze (the
#                              slow AST passes)
#   scripts/lint.sh --changed  fast mode: per-file sfq-lint rules run only
#                              on files changed vs. the merge-base with
#                              ${SFQ_LINT_BASE:-origin/main} (plus working-
#                              tree changes); whole-program passes always
#                              see the full tree. Used by the pre-commit
#                              hook (scripts/install-hooks.sh).
#
# The sfq-lint invariant checker always runs (pure python). The clang-based
# layers are skipped with a notice when the tool is not installed -- the
# committed configs (.clang-tidy, STREAMFREQ_THREAD_SAFETY, .clang-format)
# activate automatically on machines that have them. Any layer that does
# run and finds a problem fails this script.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
CHANGED=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --changed) CHANGED=1 ;;
    *) echo "usage: scripts/lint.sh [--quick] [--changed]" >&2; exit 2 ;;
  esac
done

if [[ "$CHANGED" -eq 1 ]]; then
  # Changed = diff vs the merge-base with the upstream branch, plus any
  # staged/unstaged/untracked files, deduplicated. Falls back to a plain
  # local base when no remote exists.
  BASE="${SFQ_LINT_BASE:-}"
  if [[ -z "$BASE" ]]; then
    if git rev-parse --verify -q origin/main >/dev/null; then
      BASE=origin/main
    else
      BASE=main
    fi
  fi
  MERGE_BASE=$(git merge-base "$BASE" HEAD 2>/dev/null || echo HEAD)
  mapfile -t CHANGED_FILES < <(
    {
      git diff --name-only --diff-filter=d "$MERGE_BASE"
      git diff --name-only --diff-filter=d --cached
      git ls-files --others --exclude-standard
    } | sort -u
  )
  echo "== sfq-lint (--changed: ${#CHANGED_FILES[@]} file(s) vs $BASE) =="
  # --files with an empty list still runs every whole-program pass.
  PYTHONPATH=tools python3 -m sfq_lint --files "${CHANGED_FILES[@]}"
else
  echo "== sfq-lint (domain invariants) =="
  PYTHONPATH=tools python3 -m sfq_lint
fi

echo "== sfq-lint fixture self-check =="
PYTHONPATH=tools python3 -m sfq_lint --fixtures tests/lint_fixtures

if command -v clang-format >/dev/null 2>&1; then
  echo "== clang-format drift =="
  # Fixtures are deliberately broken scratch and exempt from style.
  git ls-files '*.cc' '*.h' '*.cpp' \
    | grep -v '^tests/lint_fixtures/' \
    | xargs clang-format --dry-run -Werror
else
  echo "notice: clang-format not installed; skipping format drift check"
fi

if command -v clang-tidy >/dev/null 2>&1; then
  if [[ "$QUICK" -eq 1 || "$CHANGED" -eq 1 ]]; then
    echo "notice: --quick/--changed skips clang-tidy"
  else
    echo "== clang-tidy (.clang-tidy profile) =="
    # The compilation database comes from the primary build tree
    # (CMAKE_EXPORT_COMPILE_COMMANDS is always on).
    if [[ ! -f build/compile_commands.json ]]; then
      cmake -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
    fi
    git ls-files 'src/**/*.cc' 'tools/*.cc' 'bench/*.cc' 'examples/*.cpp' \
      | xargs clang-tidy -p build --quiet
  fi
else
  echo "notice: clang-tidy not installed; skipping tidy profile"
fi

if command -v clang++ >/dev/null 2>&1; then
  if [[ "$QUICK" -eq 1 || "$CHANGED" -eq 1 ]]; then
    echo "notice: --quick/--changed skips clang --analyze"
  else
    echo "== clang --analyze (static analyzer over compile_commands.json) =="
    if [[ ! -f build/compile_commands.json ]]; then
      cmake -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
    fi
    # Diffs analyzer warnings against the committed (empty) baseline in
    # tools/clang_analyze_baseline.txt; any new warning fails.
    python3 tools/run_clang_analyze.py \
      --compdb build/compile_commands.json \
      --baseline tools/clang_analyze_baseline.txt
  fi
else
  echo "notice: clang++ not installed; skipping clang --analyze"
fi

if [[ "$CHANGED" -eq 1 ]]; then
  echo "notice: --changed skips the thread-safety build (fast pre-commit mode)"
elif command -v clang++ >/dev/null 2>&1; then
  echo "== clang -Werror=thread-safety (annotated concurrent subsystem) =="
  # Dedicated analysis tree: the SFQ_* capability annotations only bite
  # under clang. parallel_ingestor.cc is the translation unit that carries
  # the ingestor's, and building the concurrent-labelled tests instantiates
  # the SnapshotCell template, so those are checked too, not just
  # batch_queue.cc.
  cmake -B build-tsa \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=Release \
    -DSTREAMFREQ_THREAD_SAFETY=ON \
    -DSTREAMFREQ_BUILD_BENCHMARKS=OFF \
    -DSTREAMFREQ_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsa --target streamfreq_concurrent \
    parallel_ingestor_test batch_add_test
else
  echo "notice: clang++ not installed; thread-safety annotations compile as" \
       "no-ops under this toolchain (gcc) and are enforced where clang exists"
fi

echo "lint.sh: OK"
