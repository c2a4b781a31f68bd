#!/usr/bin/env bash
# Builds the benchmark package and runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build at the repo
# root). With the registry crates in cargo's local cache the package
# builds as it stands, against the repository's own manifests. Without
# them (the offline container) a scratch workspace is assembled under the
# target directory the way .claude/skills/verify/harness/sync.sh does it:
# crates/, the vendored stub crates and benchmark/ are copied, never
# edited, and [workspace.dependencies] is pointed at the stubs.

set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$HERE/.." && pwd)"
STUBS="$ROOT/.claude/skills/verify/harness/stubs"

if [ ! -d "$ROOT/crates" ] || [ ! -f "$ROOT/Cargo.toml" ]; then
  echo "run.sh: $ROOT holds no crates/ and Cargo.toml: there is no program to measure" >&2
  exit 2
fi

cd "$ROOT"
TARGET="${CARGO_TARGET_DIR:-.bench_build}"
case "$TARGET" in /*) ;; *) TARGET="$ROOT/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"
mkdir -p "$TARGET"
LOG="$TARGET/build.log"
BIN="$TARGET/release/hourglass-benchmark"

build_with_stubs() {
  local ws="$TARGET/ws"
  rm -rf "$ws"
  mkdir -p "$ws/benchmark"
  # -p keeps modification times, so cargo sees unchanged sources as fresh.
  cp -rp "$ROOT/crates" "$ws/crates"
  cp -rp "$STUBS" "$ws/stubs"
  cp -rp "$HERE/src" "$ws/benchmark/src"
  cp -rp "$HERE/tests" "$ws/benchmark/tests"
  cp -p "$ROOT/BENCHMARK.json" "$ws/BENCHMARK.json"
  # Inside the scratch workspace the package is a member, not a root.
  grep -v '^\[workspace\]$' "$HERE/Cargo.toml" > "$ws/benchmark/Cargo.toml"
  sed -E \
    -e '/^\[package\]/,$d' \
    -e 's#^members = .*#members = ["crates/*", "benchmark"]#' \
    -e 's#^rand = .*#rand = { path = "stubs/rand" }#' \
    -e 's#^proptest = .*#proptest = { path = "stubs/proptest" }#' \
    -e 's#^criterion = .*#criterion = { path = "stubs/criterion" }#' \
    -e 's#^crossbeam = .*#crossbeam = { path = "stubs/crossbeam" }#' \
    -e 's#^parking_lot = .*#parking_lot = { path = "stubs/parking_lot" }#' \
    -e 's#^bytes = .*#bytes = { path = "stubs/bytes" }#' \
    -e 's#^memmap2 = .*#memmap2 = { path = "stubs/memmap2" }#' \
    -e 's#^serde = \{.*#serde = { path = "stubs/serde", features = ["derive", "rc"] }#' \
    -e 's#^serde_json = .*#serde_json = { path = "stubs/serde_json" }#' \
    "$ROOT/Cargo.toml" > "$ws/Cargo.toml"
  if grep -E '^(rand|proptest|criterion|crossbeam|parking_lot|bytes|memmap2|serde|serde_json) = ("|\{ *version)' "$ws/Cargo.toml" >&2; then
    echo "run.sh: a registry dependency survived the rewrite (above)" >&2
    return 1
  fi
  (cd "$ws" && cargo "$@" --release --offline -p hourglass-benchmark)
}

# `run.sh --cargo test` runs the package's own tests the same two ways.
CARGO_CMD=build
if [ "${1:-}" = "--cargo" ]; then
  CARGO_CMD="$2"
  shift 2
fi

if ! cargo "$CARGO_CMD" --release --offline --manifest-path "$HERE/Cargo.toml" >"$LOG" 2>&1; then
  if [ ! -d "$STUBS" ]; then
    cat "$LOG" >&2
    echo "run.sh: the registry crates are not cached and $STUBS is missing" >&2
    exit 2
  fi
  if ! build_with_stubs "$CARGO_CMD" >"$LOG" 2>&1; then
    cat "$LOG" >&2
    exit 2
  fi
fi
if [ "$CARGO_CMD" != build ]; then
  cat "$LOG"
  exit 0
fi

exec "$BIN" "$@"
