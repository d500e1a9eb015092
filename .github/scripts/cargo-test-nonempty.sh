#!/usr/bin/env bash
# Run `cargo test "$@"` and fail unless at least one test ran.
#
# `cargo test` exits 0 when a name filter matches nothing, so a filtered
# CI step would silently pass after its tests are renamed or moved. This
# wrapper keeps cargo's own exit status and additionally sums the
# "N passed" counts of every test binary it ran.
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo test "$@" 2>&1 | tee "$out"
passed=$(grep -Eo 'test result: ok\. [0-9]+ passed' "$out" | awk '{ n += $4 } END { print n + 0 }')
if [ "$passed" -eq 0 ]; then
  echo "error: 'cargo test $*' ran no tests" >&2
  exit 1
fi
echo "tests passed: $passed"
