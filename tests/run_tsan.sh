#!/usr/bin/env bash
# Builds the tree under a sanitizer (ThreadSanitizer by default) and runs the
# concurrency-heavy test binaries (runtime frames and holders, the worker-pool
# scheduler, the three-job feed pipeline, the fault-injection machinery, the
# observability primitives, the admin server / sampler / flight-recorder
# telemetry plane, and the LSM dataset's lock-free sequence publication and
# shared snapshots). Usage:
#
#   [IDEA_SANITIZE=thread|address|undefined] tests/run_tsan.sh [build-dir [test-binary...]]
#
# IDEA_SANITIZE picks the sanitizer, through the CMake option of the same
# name (default: thread). The default build directory is build-tsan for
# ThreadSanitizer and build-<sanitizer> otherwise. With no test binaries, the
# default concurrency suite runs.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SANITIZER="${IDEA_SANITIZE:-thread}"
if [ "${SANITIZER}" = "thread" ]; then
  DEFAULT_BUILD_DIR="${REPO_ROOT}/build-tsan"
else
  DEFAULT_BUILD_DIR="${REPO_ROOT}/build-${SANITIZER}"
fi
BUILD_DIR="${1:-${DEFAULT_BUILD_DIR}}"
shift $(( $# > 0 ? 1 : 0 ))

TESTS=("$@")
if [ ${#TESTS[@]} -eq 0 ]; then
  TESTS=(runtime_test scheduler_test feed_pipeline_test obs_test
         admin_server_test sqlpp_delta_refresh_test fault_injection_test
         feed_fault_test cluster_ha_test storage_lsm_test)
fi

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DIDEA_SANITIZE="${SANITIZER}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${TESTS[@]}"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
for t in "${TESTS[@]}"; do
  echo "== ${SANITIZER}: ${t} =="
  "${BUILD_DIR}/tests/${t}"
done
echo "${SANITIZER}: all clean"
