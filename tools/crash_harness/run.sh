#!/usr/bin/env bash
# Crash-injection sweep: run example_crash_resume_join (SIGKILL after
# the Nth durable manifest commit, then Engine::Resume, verified
# against the reference oracle) across every async I/O backend. The
# uring leg self-skips on hosts without io_uring support.
#
#   tools/crash_harness/run.sh [path-to-build-dir]
#
# Exit 0 only when every backend's full kill-point sweep resumed to the
# exact answer with completed chunks skipped. CI runs this on both
# io-backend matrix rows (.github/workflows/ci.yml).
set -u
cd "$(dirname "$0")/../.."

BUILD_DIR="${1:-build}"
HARNESS="$BUILD_DIR/example_crash_resume_join"
if [[ ! -x "$HARNESS" ]]; then
  echo "crash harness binary not found: $HARNESS (build the examples first)"
  exit 2
fi

failures=0
for backend in threadpool uring; do
  echo "=== crash sweep: $backend ==="
  if ! "$HARNESS" "$backend"; then
    echo "=== crash sweep FAILED: $backend ==="
    failures=$((failures + 1))
  fi
done

if [[ "$failures" -ne 0 ]]; then
  echo "crash harness: $failures backend sweep(s) failed"
  exit 1
fi
echo "crash harness: all backend sweeps passed"
