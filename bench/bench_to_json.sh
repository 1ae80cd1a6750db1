#!/usr/bin/env bash
# Regenerate the tracked Release-mode benchmark snapshots:
#   BENCH_diff.json     — diff-algorithm ablation (abl_diff_algos)
#   BENCH_persist.json  — durability costs: journal append, replay scan,
#                         server recovery (abl_persist)
#   BENCH_shard.json    — thread-per-core sharding sweep: acks/sec at
#                         1/2/4/8 shards x 32/256 editors (abl_shards)
#   BENCH_overload.json — overload-control sweep: goodput + p50/p99
#                         submit latency vs offered load, shedding
#                         off vs on (abl_overload; deterministic sim)
#   BENCH_scale.json    — population-scale scenario sweep: workload mix
#                         x population, p50/p99 submit latency,
#                         acks/sec, bytes saved (abl_scale;
#                         deterministic sim)
#   BENCH_cdc.json      — CDC codec ablation: wire bytes, encode/apply
#                         CPU, server resident state vs line-diff codecs
#                         and full transfer (abl_cdc)
# Future PRs compare against these files to keep a perf trajectory for the
# Delta::compute hot path and the crash-consistency overhead.
#
# Usage: bench/bench_to_json.sh [build-dir]   (default: build-rel)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-$ROOT/build-rel}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" --target abl_diff_algos abl_persist abl_shards abl_overload abl_scale abl_cdc -j"$(nproc)"

# Provenance stamp: which commit and build type produced these numbers.
# A snapshot from a dirty tree is marked so regressions aren't chased
# against unreproducible baselines. Benchmark outputs (BENCH_*.json,
# .bench_build/) do not count, as in bench/e2e/run.py.
GIT_SHA="$(git -C "$ROOT" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
DIRTY="$(git -C "$ROOT" status --porcelain 2>/dev/null | cut -c4- \
  | grep -Ev '(^|/)BENCH_[^/]*\.json$|^\.bench_build/' || true)"
if [ -n "$DIRTY" ]; then
  GIT_SHA="${GIT_SHA}-dirty"
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt" | head -n1)"
BUILD_TYPE="${BUILD_TYPE:-unknown}"
# Hardware context for the sharding sweep: the model_tpc_acks_per_sec
# projection models one loop per core, so the core count the numbers were
# taken on is part of their provenance.
HOST_CORES="$(nproc 2>/dev/null || echo unknown)"

# Inject the stamp into the benchmark JSON's "context" object. Google
# Benchmark emits `"context": {` on its own line; extend it in place so
# the file stays valid JSON without needing jq.
stamp_json() {
  local file="$1"
  sed -i "s/^  \"context\": {\$/  \"context\": {\n    \"git_sha\": \"$GIT_SHA\",\n    \"build_type\": \"$BUILD_TYPE\",\n    \"host_cores\": \"$HOST_CORES\",/" "$file"
  if ! grep -q '"git_sha"' "$file"; then
    echo "warning: could not stamp provenance into $file" >&2
  fi
}

# min_time smooths scheduler noise; JSON format suppresses the size table.
"$BUILD/bench/abl_diff_algos" \
  --benchmark_format=json \
  --benchmark_min_time=0.5 \
  > "$ROOT/BENCH_diff.json"
stamp_json "$ROOT/BENCH_diff.json"

echo "wrote $ROOT/BENCH_diff.json ($GIT_SHA, $BUILD_TYPE)"

"$BUILD/bench/abl_persist" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  > "$ROOT/BENCH_persist.json"
stamp_json "$ROOT/BENCH_persist.json"

echo "wrote $ROOT/BENCH_persist.json ($GIT_SHA, $BUILD_TYPE)"

"$BUILD/bench/abl_shards" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  > "$ROOT/BENCH_shard.json"
stamp_json "$ROOT/BENCH_shard.json"

echo "wrote $ROOT/BENCH_shard.json ($GIT_SHA, $BUILD_TYPE, ${HOST_CORES} cores)"

# Deterministic simulation: no min_time — each configuration is one
# exact replay, and the counters (goodput, p50/p99 latency) are the
# quantities of interest, not wall time.
"$BUILD/bench/abl_overload" \
  --benchmark_format=json \
  > "$ROOT/BENCH_overload.json"
stamp_json "$ROOT/BENCH_overload.json"

echo "wrote $ROOT/BENCH_overload.json ($GIT_SHA, $BUILD_TYPE)"

# Same deal: each (mix, population) cell is one exact scenario replay.
"$BUILD/bench/abl_scale" \
  --benchmark_format=json \
  > "$ROOT/BENCH_scale.json"
stamp_json "$ROOT/BENCH_scale.json"

echo "wrote $ROOT/BENCH_scale.json ($GIT_SHA, $BUILD_TYPE)"

# CDC codec ablation: the wire_bytes / resident_state_bytes counters are
# deterministic; min_time smooths the CPU timings.
"$BUILD/bench/abl_cdc" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  > "$ROOT/BENCH_cdc.json"
stamp_json "$ROOT/BENCH_cdc.json"

echo "wrote $ROOT/BENCH_cdc.json ($GIT_SHA, $BUILD_TYPE)"
