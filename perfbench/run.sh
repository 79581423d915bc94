#!/usr/bin/env bash
# Builds the dqctd daemon (from the repository's workspace) and the
# benchmark harness, then runs one workload:
#
#   bash perfbench/run.sh --workload svc-zipf --seed 1 --seconds 36 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run files (journals, spans) go to .bench_run.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p dqctd --bin dqctd --target-dir "$target" >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    --target-dir "$target" >&2
PERFBENCH_DAEMON="$target/release/dqctd" exec "$target/release/perfbench" "$@"
