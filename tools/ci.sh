#!/usr/bin/env bash
# CI entrypoint. Modes:
#
#   tools/ci.sh                      # plain: hygiene + configure + build + test
#   tools/ci.sh --mode=plain
#   tools/ci.sh --mode=lint          # hygiene + xfraud_lint + xfraud_analyze
#                                    # + clang-tidy (no ctest)
#   tools/ci.sh --mode=analyze       # hygiene + xfraud_analyze only: the
#                                    # whole-program passes (layering DAG,
#                                    # include cycles, discarded Status,
#                                    # unordered iteration) against the
#                                    # checked-in baseline; writes an
#                                    # ANALYZE.json snapshot (gitignored)
#   tools/ci.sh --mode=ubsan         # build + test with XFRAUD_SANITIZE=undefined
#   tools/ci.sh --mode=tsan          # build + test with XFRAUD_SANITIZE=thread
#   tools/ci.sh --mode=asan          # build + test with XFRAUD_SANITIZE=address
#   tools/ci.sh --mode=faults        # build + test under a chaos fault plan
#                                    # (XFRAUD_FAULT_PLAN overrides the default)
#   tools/ci.sh --mode=mp            # multi-process leg: the MultiProcess
#                                    # fork/SIGKILL test suite under a hard
#                                    # timeout, a socket dist-bench smoke
#                                    # (real worker processes), a serving-tier
#                                    # chaos smoke (shard-server SIGKILL +
#                                    # respawn + wire corruption), and a
#                                    # bench_serve_mp snapshot
#   tools/ci.sh --mode=bench-smoke   # bench_nn_ops, a fast bench_kvstore and
#                                    # a fast bench_serve_tail_latency under
#                                    # ASan+UBSan (one short pass each),
#                                    # then a plain-build run that
#                                    # snapshots BENCH_nn_ops.json
#
# An optional positional argument overrides the build directory (default:
# build for plain/lint, build-<mode> for sanitizer modes).
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="plain"
BUILD_DIR=""
for arg in "$@"; do
  case "${arg}" in
    --mode=*) MODE="${arg#--mode=}" ;;
    --help|-h)
      sed -n '2,/^[^#]/{/^#/p}' "$0"
      exit 0
      ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done

SANITIZE=""
case "${MODE}" in
  plain|lint|analyze|faults|mp|bench-smoke) ;;
  ubsan) SANITIZE="undefined" ;;
  tsan) SANITIZE="thread" ;;
  asan) SANITIZE="address" ;;
  *)
    echo "ci.sh: unknown mode '${MODE}' (plain|lint|analyze|ubsan|tsan|asan|faults|mp|bench-smoke)" >&2
    exit 2
    ;;
esac
if [[ -z "${BUILD_DIR}" ]]; then
  if [[ -n "${SANITIZE}" || "${MODE}" == "faults" || "${MODE}" == "mp" || "${MODE}" == "bench-smoke" ]]; then
    BUILD_DIR="build-${MODE}"
  else
    BUILD_DIR="build"
  fi
fi

# Chaos profile: transient KV errors and latency plus one worker kill,
# injected deterministically (fault/fault_plan.h grammar). The suite must
# pass anyway — retries, degraded batches, and DDP recovery absorb it
# (DdpFaultTest.ThreadedClusterSurvivesEnvSelectedChaosPlan runs the kill).
if [[ "${MODE}" == "faults" ]]; then
  export XFRAUD_FAULT_PLAN="${XFRAUD_FAULT_PLAN:-seed=20260805,kv_error_rate=0.01,kv_latency_rate=0.005,kv_latency_s=0.0001,kill_worker=1@1:2}"
  echo "== fault plan: ${XFRAUD_FAULT_PLAN} =="
fi

echo "== hygiene =="
tools/check_no_build_artifacts.sh

# Whole-program analyzer: exits 1 on any finding not covered by the
# checked-in baseline (tools/analyze/analyze_baseline.txt — empty, and
# meant to stay that way). ANALYZE.json is the machine-readable snapshot.
run_analyze() {
  echo "== build xfraud_analyze =="
  cmake --build "${BUILD_DIR}" -j "$(nproc)" --target xfraud_analyze
  echo "== xfraud_analyze =="
  "${BUILD_DIR}/tools/xfraud_analyze" --json=ANALYZE.json
}

if [[ "${MODE}" == "analyze" ]]; then
  echo "== configure (for xfraud_analyze) =="
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
  run_analyze
  echo "== analyze ok =="
  exit 0
fi

if [[ "${MODE}" == "lint" ]]; then
  echo "== configure (for xfraud_lint + compile db) =="
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
  echo "== build xfraud_lint =="
  cmake --build "${BUILD_DIR}" -j "$(nproc)" --target xfraud_lint
  echo "== xfraud_lint =="
  "${BUILD_DIR}/tools/xfraud_lint"
  run_analyze
  echo "== clang-tidy =="
  tools/run_clang_tidy.sh "${BUILD_DIR}"
  echo "== lint ok =="
  exit 0
fi

# Bench smoke: every kernel and fusion path in bench_nn_ops,
# bench_kvstore's loaders, LogKv bulk ingest (one framed batch) and compact,
# and bench_serve_tail_latency's slow-replica tail (virtual clock) and
# load-shedding curve execute once under ASan+UBSan, then a plain Release
# build emits a BENCH_nn_ops.json snapshot (gitignored) for before/after
# comparisons.
if [[ "${MODE}" == "bench-smoke" ]]; then
  echo "== configure (bench-smoke, address+undefined) =="
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
        -DXFRAUD_SANITIZE="address,undefined"
  echo "== build bench_nn_ops, bench_kvstore, bench_serve_tail_latency (sanitized) =="
  cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_nn_ops \
        bench_kvstore bench_serve_tail_latency
  echo "== bench_nn_ops smoke (sanitized) =="
  "${BUILD_DIR}/bench/bench_nn_ops" --benchmark_min_time=0.01
  echo "== bench_kvstore smoke (sanitized) =="
  XFRAUD_BENCH_FAST=1 "${BUILD_DIR}/bench/bench_kvstore"
  echo "== bench_serve_tail_latency smoke (sanitized) =="
  XFRAUD_BENCH_FAST=1 "${BUILD_DIR}/bench/bench_serve_tail_latency"
  echo "== configure (plain snapshot) =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  echo "== build bench_nn_ops (plain) =="
  cmake --build build -j "$(nproc)" --target bench_nn_ops
  echo "== BENCH_nn_ops.json snapshot =="
  build/bench/bench_nn_ops --benchmark_min_time=0.05 \
    --benchmark_out=BENCH_nn_ops.json --benchmark_out_format=json
  echo "== ci ok (${MODE}) =="
  exit 0
fi

echo "== configure (${MODE}) =="
CONFIG_ARGS=(-DCMAKE_BUILD_TYPE=Release)
if [[ -n "${SANITIZE}" ]]; then
  CONFIG_ARGS+=("-DXFRAUD_SANITIZE=${SANITIZE}")
fi
cmake -B "${BUILD_DIR}" -S . "${CONFIG_ARGS[@]}"

echo "== build =="
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# Multi-process leg: real forked worker processes, real SIGKILLs, socket
# rendezvous. Everything runs under hard timeouts (ctest --timeout plus the
# launcher's own overall deadline) so a wedged ring can never hang CI.
if [[ "${MODE}" == "mp" ]]; then
  echo "== multi-process dist tests =="
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
        --timeout 600 -R '^xfraud_mp_tests$'
  echo "== socket dist-bench smoke =="
  MP_TMP="$(mktemp -d /tmp/xfraud-ci-mp.XXXXXX)"
  trap 'rm -rf "${MP_TMP}"' EXIT
  timeout 300 "${BUILD_DIR}/tools/xfraud_cli" generate \
    --out "${MP_TMP}/log.tsv" --scale small --seed 42
  timeout 300 "${BUILD_DIR}/tools/xfraud_cli" dist-bench \
    --log "${MP_TMP}/log.tsv" --transport=socket --workers=4 --epochs=1 \
    --checkpoint-dir "${MP_TMP}/ckpt" \
    --fault-plan "kill_worker=2@0:1"

  # Serving-tier chaos leg (DESIGN.md §16): fork a 2x2 grid of shard-server
  # processes, SIGKILL every shard's primary mid-load (supervisor respawns
  # from the cell WAL) and flip one frame byte on the wire (CRC-detected,
  # router resends). serve_mp_test.cc (in the ctest leg above) asserts the
  # scores are bit-identical to a single-process run and that replaying the
  # printed FaultPlan reproduces the outcome; this smoke drives the same
  # machinery through the CLI, then bench_serve_mp snapshots in-process vs
  # socket-transport tails.
  echo "== socket serve-bench chaos smoke =="
  timeout 300 "${BUILD_DIR}/tools/xfraud_cli" serve-bench \
    --log "${MP_TMP}/log.tsv" --transport=socket --shards=2 --replicas=2 \
    --requests=60 --deadline-ms=5000 --dir "${MP_TMP}/serve" \
    --fault-plan "kill_server=0@5,corrupt_frame=3"
  echo "== bench_serve_mp snapshot =="
  XFRAUD_BENCH_FAST=1 XFRAUD_METRICS_OUT=BENCH_serve_mp.json \
    timeout 300 "${BUILD_DIR}/bench/bench_serve_mp"
  echo "== ci ok (${MODE}) =="
  exit 0
fi

echo "== test =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

# Serving chaos leg: re-run the ServingChaos suites with XFRAUD_FAULT_PLAN
# set to a replica-failure plan (one replica of every shard dead plus
# flaky reads). Only ServingChaosTest.EnvPlanAnswersEveryRequestBitIdentically
# reads it: on a LogKv grid, every request must be answered (OK or
# degraded), two runs must score bit-identically, and the dead replica
# must have failed reads. The other ServingChaos cases run their own
# literal plans, as in the ctest leg.
if [[ "${MODE}" == "faults" ]]; then
  echo "== serving chaos =="
  XFRAUD_FAULT_PLAN="seed=20260805,kill_replica=0,kv_error_rate=0.005" \
    "${BUILD_DIR}/tests/xfraud_tests" --gtest_filter='ServingChaos*'

  # Continuous-ingest chaos leg (DESIGN.md §15): streaming writers publish
  # MVCC epochs while pinned readers score and the compactor GCs, under
  # kill_replica + torn_write + stall_compaction. stream_test.cc asserts
  # pinned-epoch scores bit-identical to a fault-free run and zero torn
  # reads; the bench emits a metrics snapshot (gitignored) on top.
  echo "== continuous-ingest chaos =="
  "${BUILD_DIR}/tests/xfraud_tests" --gtest_filter='ContinuousIngest*'
  echo "== bench_continuous_ingest snapshot =="
  XFRAUD_BENCH_FAST=1 XFRAUD_METRICS_OUT=BENCH_continuous_ingest.json \
    "${BUILD_DIR}/bench/bench_continuous_ingest"
fi

echo "== ci ok (${MODE}) =="
