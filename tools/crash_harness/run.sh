#!/usr/bin/env bash
# Crash-injection sweep: run example_crash_resume_join (SIGKILL after
# the Nth durable manifest commit, then Engine::Resume, verified
# against the reference oracle). The spill path runs the I/O engine
# D-MPSM derives for this host: io_uring where the kernel accepts it,
# else the threadpool (docs/io.md).
#
#   tools/crash_harness/run.sh [path-to-build-dir]
#
# Exit 0 only when the full kill-point sweep resumed to the exact
# answer with completed chunks skipped. CI runs the example directly
# (.github/workflows/ci.yml).
set -u
cd "$(dirname "$0")/../.."

BUILD_DIR="${1:-build}"
HARNESS="$BUILD_DIR/example_crash_resume_join"
if [[ ! -x "$HARNESS" ]]; then
  echo "crash harness binary not found: $HARNESS (build the examples first)"
  exit 2
fi

if ! "$HARNESS"; then
  echo "crash harness: the kill-point sweep failed"
  exit 1
fi
echo "crash harness: the kill-point sweep passed"
