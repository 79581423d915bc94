#!/usr/bin/env bash
# Repository hygiene gate: formatting, lints, full test suite.
#
# Designed for the offline reproduction environment: every cargo call
# passes --offline (all dependencies resolve to in-repo shims, see
# DESIGN.md §7.2), so no network access is required.
#
# Usage: ./scripts/check.sh [--fast] [--soak N]
#   --fast    skip the release-mode build (debug tests only)
#   --soak N  run only the flake soak: the dqctd, qsim and root
#             integration-tests suites N times, stopping at the first
#             failing run, whose failing tests are printed before exiting
#             non-zero

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
SOAK=0
while [ "$#" -gt 0 ]; do
    case "$1" in
    --fast) FAST=1 ;;
    --soak)
        if [ "$#" -lt 2 ] || ! [[ "$2" =~ ^[1-9][0-9]*$ ]]; then
            echo "--soak needs a positive run count" >&2
            exit 2
        fi
        SOAK="$2"
        shift
        ;;
    *)
        echo "unknown argument: $1" >&2
        exit 2
        ;;
    esac
    shift
done

# Flake soak: tier-1 must pass every time, not most times. The suites that
# drive threads, sockets and child processes run back to back, with the
# cross-crate integration tests (engine differential, cross-backend,
# fig7 shape) that sample through the executor at several thread counts;
# the first failing run ends the soak with its failing tests on stderr.
if [ "$SOAK" -gt 0 ]; then
    SOAK_LOG="$(mktemp)"
    trap 'rm -f "$SOAK_LOG"' EXIT
    SOAK_PACKAGES=(-p dqctd -p qsim -p integration-tests)
    for i in $(seq 1 "$SOAK"); do
        echo "==> soak run $i/$SOAK: cargo test --offline -q ${SOAK_PACKAGES[*]}"
        if ! cargo test --offline -q "${SOAK_PACKAGES[@]}" >"$SOAK_LOG" 2>&1; then
            echo "soak FAILED on run $i of $SOAK; failing tests:" >&2
            if grep -q '^failures:$' "$SOAK_LOG"; then
                sed -n '/^failures:$/,/^test result:/p' "$SOAK_LOG" >&2
            else
                tail -n 40 "$SOAK_LOG" >&2
            fi
            exit 1
        fi
    done
    echo "==> soak passed: $SOAK of $SOAK runs green"
    exit 0
fi

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
# Library code in the simulation/transform core must not unwrap: failures
# there have typed errors (NoiseError, MitigateError, DqcError) or degrade
# gracefully (run_resilient). Tests may unwrap freely. qfault additionally
# carries a crate-level #![deny(clippy::unwrap_used)] — fault injection
# code that panics would corrupt the chaos experiments it drives. The bench
# crate (lib + bins) is held to the same bar: its binaries emit committed
# artifacts, and a panic mid-sweep loses the whole run. qcir/qalgo (the IR
# and circuit generators everything builds on) and the CLI driver are held
# to it too — a panic in the CLI turns a typed one-line error into a crash.
run cargo clippy -p qsim -p dqc -p qfault -p bench -p qcir -p qalgo -p dqct-cli -p dqctd --lib --bins --offline -- -D warnings -D clippy::unwrap_used
# Rustdoc gate: deleting or renaming a public item silently breaks every
# intra-doc link to it; warnings (unresolved, ambiguous or redundant links)
# fail the build here instead.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
if [ "$FAST" -eq 0 ]; then
    run cargo build --release --offline
fi
run cargo test --workspace --offline -q
# The service benchmark is its own crate outside the workspace, built from
# these libraries: a library change that breaks it fails here, not in the
# benchmark run. It shares the benchmark's build directory.
run cargo check --offline --manifest-path perfbench/Cargo.toml --target-dir .bench_build

# Determinism gate: a fixed-seed simulation must produce bit-identical
# counters at every worker count. The circuit has a Toffoli, so the
# conditioned-gate counters (executor.cc_fired / cc_skipped) depend on the
# per-shot measurement outcomes — any drift in the per-shot RNG streams
# shows up here.
echo "==> determinism gate: --threads 1 vs --threads 8"
GATE_QASM='OPENQASM 3.0;
include "stdgates.inc";
qubit[3] q;
h q[0];
h q[1];
ccx q[0], q[1], q[2];'
gate_counters() {
    cargo run -q --offline -p dqct-cli --bin dqct -- \
        --answer 2 --metrics-out - --shots 256 --seed 11 --threads "$1" \
        <<<"$GATE_QASM" | grep -o '"counters":{[^}]*}'
}
c1="$(gate_counters 1)"
c8="$(gate_counters 8)"
if [ "$c1" != "$c8" ]; then
    echo "determinism gate FAILED: counters differ between thread counts" >&2
    diff <(echo "$c1") <(echo "$c8") >&2 || true
    exit 1
fi
echo "    counters identical: $c1"

# Prefix-engine gates: the branch-tree shot engine must (a) be bit-identical
# to the per-shot executor on every shared counter at the same seed, and
# (b) stay thread-count invariant itself — the tree is walked with the same
# counter-derived per-shot RNG streams the per-shot loop uses, so both
# properties are exact equalities, not statistical ones.
echo "==> prefix-engine parity gate: --engine prefix vs --engine shots"
engine_counters() {
    cargo run -q --offline -p dqct-cli --bin dqct -- \
        --answer 2 --metrics-out - --shots 256 --seed 11 --threads "$2" \
        --engine "$1" \
        <<<"$GATE_QASM" | grep -o '"counters":{[^}]*}' |
        sed -E 's/"prefix\.[^"]*":[0-9]+,?//g; s/,}/}/'
}
ps1="$(engine_counters prefix 1)"
ss1="$(engine_counters shots 1)"
if [ "$ps1" != "$ss1" ]; then
    echo "prefix-engine parity gate FAILED: engines disagree on shared counters" >&2
    diff <(echo "$ps1") <(echo "$ss1") >&2 || true
    exit 1
fi
echo "    engines agree: $ps1"
echo "==> prefix-engine determinism gate: --threads 1 vs --threads 8"
ps8="$(engine_counters prefix 8)"
if [ "$ps1" != "$ps8" ]; then
    echo "prefix-engine determinism gate FAILED: counters differ between thread counts" >&2
    diff <(echo "$ps1") <(echo "$ps8") >&2 || true
    exit 1
fi
echo "    counters identical across thread counts"

# Mitigation determinism gate: the mitigated + noisy resilient path must
# stay bit-identical across worker counts too — vote resolution, scratch
# clbits and per-shot noise all ride on the per-shot RNG streams.
echo "==> mitigation determinism gate: --threads 1 vs --threads 8"
mitigated_counters() {
    cargo run -q --offline -p dqct-cli --bin dqct -- \
        --answer 2 --metrics-out - --shots 256 --seed 11 --threads "$1" \
        --noise 1.0 --mitigate=meas-repeat=3 \
        <<<"$GATE_QASM" | grep -o '"counters":{[^}]*}'
}
m1="$(mitigated_counters 1)"
m8="$(mitigated_counters 8)"
if [ "$m1" != "$m8" ]; then
    echo "mitigation determinism gate FAILED: counters differ between thread counts" >&2
    diff <(echo "$m1") <(echo "$m8") >&2 || true
    exit 1
fi
echo "    counters identical: $m1"

# Chaos determinism gate: injected faults are scheduled counter-style from
# (fault_seed, shot, site), never from the shot's own RNG stream, so the
# fault.injected.* counters — and the shot counts they perturb — must be
# bit-identical at every worker count. The spec leaves out the delay site
# (wall-clock only) and sets no budgets, so failed shots are also
# thread-invariant.
echo "==> chaos determinism gate: --inject at --threads 1 vs --threads 8"
chaos_counters() {
    cargo run -q --offline -p dqct-cli --bin dqct -- \
        --answer 2 --metrics-out - --shots 256 --seed 11 --threads "$1" \
        --inject 'seed=5,reset-leak=0.2,meas-flip=0.1,cc-flip=0.05,cc-loss=0.05,gate-drop=0.05,gate-dup=0.05,panic=0.02' \
        <<<"$GATE_QASM" | grep -o '"counters":{[^}]*}'
}
f1="$(chaos_counters 1)"
f8="$(chaos_counters 8)"
if [ "$f1" != "$f8" ]; then
    echo "chaos determinism gate FAILED: counters differ between thread counts" >&2
    diff <(echo "$f1") <(echo "$f8") >&2 || true
    exit 1
fi
case "$f1" in
*fault.injected.*) ;;
*)
    echo "chaos determinism gate FAILED: no fault.injected.* counters in output" >&2
    exit 1
    ;;
esac
echo "    counters identical: $f1"

# Trace determinism gate: under the virtual test clock the merged Chrome
# trace is a pure function of (circuit, seed, shots) — shot spans are
# recorded into owner-local buffers and submitted in shot order, so the
# exported file must be byte-identical at every worker count.
echo "==> trace determinism gate: --trace at --threads 1 vs --threads 8"
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
gate_trace() {
    cargo run -q --offline -p dqct-cli --bin dqct -- \
        --answer 2 --verify --shots 256 --seed 11 --threads "$1" \
        --trace "$TRACE_DIR/trace$1.json" --trace-clock test \
        <<<"$GATE_QASM" >/dev/null
}
gate_trace 1
gate_trace 8
if ! cmp -s "$TRACE_DIR/trace1.json" "$TRACE_DIR/trace8.json"; then
    echo "trace determinism gate FAILED: traces differ between thread counts" >&2
    exit 1
fi
for span in pipeline.transform pipeline.verify pipeline.account '"shot"' executor.run_resilient; do
    if ! grep -q "$span" "$TRACE_DIR/trace1.json"; then
        echo "trace determinism gate FAILED: span $span missing from trace" >&2
        exit 1
    fi
done
echo "    traces identical ($(wc -c <"$TRACE_DIR/trace1.json") bytes)"

# Reuse determinism gate: a fixed-width lane plan must simulate to
# bit-identical counters at every worker count, exactly like the k = 1
# path — lane replay adds mid-circuit resets and measures but no new
# nondeterminism.
echo "==> reuse determinism gate: --reuse 2 at --threads 1 vs --threads 8"
reuse_counters() {
    cargo run -q --offline -p dqct-cli --bin dqct -- \
        --answer 2 --reuse 2 --metrics-out - --shots 256 --seed 11 --threads "$1" \
        <<<"$GATE_QASM" | grep -o '"counters":{[^}]*}'
}
r1="$(reuse_counters 1)"
r8="$(reuse_counters 8)"
if [ "$r1" != "$r8" ]; then
    echo "reuse determinism gate FAILED: counters differ between thread counts" >&2
    diff <(echo "$r1") <(echo "$r8") >&2 || true
    exit 1
fi
echo "    counters identical: $r1"

# Reuse equivalence gate: every feasible width of the gate circuit must
# verify exactly equivalent to the traditional input. The gate circuit's
# Toffoli lowers under dynamic-2 to 3 work qubits (max width 3; width 4
# reports 'invalid reuse plan', which is acceptable). A width that plans
# successfully but verifies with nonzero TVD is a planner soundness bug.
echo "==> reuse equivalence gate: every feasible width verifies exactly"
feasible=0
for k in 1 2 3 4; do
    if out="$(cargo run -q --offline -p dqct-cli --bin dqct -- \
        --answer 2 --reuse "$k" --verify <<<"$GATE_QASM" 2>&1)"; then
        feasible=$((feasible + 1))
        if ! grep -q '// verify: tvd = 0.000000' <<<"$out"; then
            echo "reuse equivalence gate FAILED: k=$k is feasible but not exact" >&2
            grep '// verify' <<<"$out" >&2 || true
            exit 1
        fi
    elif ! grep -q 'invalid reuse plan' <<<"$out"; then
        echo "reuse equivalence gate FAILED: k=$k errored unexpectedly" >&2
        echo "$out" >&2
        exit 1
    fi
done
if [ "$feasible" -lt 2 ]; then
    echo "reuse equivalence gate FAILED: only $feasible feasible width(s)" >&2
    exit 1
fi
echo "    $feasible feasible widths, all exact"

# Reuse-pareto gate: the committed design-space sweep must match the
# current schema, keep every currently-feasible width, stay exact at every
# width above 1, and still expose a 3-point (width, depth) frontier on at
# least one suite. Timing values are machine-dependent and not compared.
if [ "$FAST" -eq 0 ]; then
    echo "==> reuse-pareto gate"
    run cargo run -q --release --offline -p bench --bin reuse_sweep -- \
        --check BENCH_reuse_pareto.json
else
    echo "==> reuse-pareto gate skipped (--fast; the sweep wants release codegen)"
fi

# Perf-baseline gate: a quick instrumented profile must still surface every
# pipeline phase and gate-apply histogram, the committed
# BENCH_perf_baseline.json must match the current schema, and the disabled
# tracing fast path must stay within its per-call budget. Timing values are
# machine-dependent and not compared.
if [ "$FAST" -eq 0 ]; then
    echo "==> perf-baseline gate"
    run cargo run -q --release --offline -p bench --bin perf_baseline -- \
        --check BENCH_perf_baseline.json
else
    echo "==> perf-baseline gate skipped (--fast; the overhead budget needs release codegen)"
fi

# Shot-scaling gate: the committed BENCH_shot_scaling.json trajectory point
# must match the current schema and record the prefix engine >= 5x the
# per-shot executor at 4096 shots, and a fresh quick sweep must re-assert
# engine bit-identity on this machine. Fresh timing values are machine-
# dependent and not compared.
if [ "$FAST" -eq 0 ]; then
    echo "==> shot-scaling gate"
    run cargo run -q --release --offline -p bench --bin shot_scaling -- \
        --check BENCH_shot_scaling.json
else
    echo "==> shot-scaling gate skipped (--fast; engine timings need release codegen)"
fi

# Service gates: (a) the committed BENCH_service_load.json trajectory
# point must match the current schema and record zero dropped jobs, and a
# fresh in-process chaos drill must fault exactly the predicted job set
# while serving everything else bit-identically to a fault-free server;
# (b) a real dqctd on loopback, with injected 20 ms/shot latency on every
# job, must shed a 2x overload with typed rejections (nonzero), answer
# every accepted job (zero dropped), report an empty in-flight registry
# (service.inflight_bytes and service.queue_depth both 0), and drain
# cleanly on SIGTERM with exit code 0.
if [ "$FAST" -eq 0 ]; then
    echo "==> service-load gate"
    run cargo run -q --release --offline -p bench --bin service_load -- \
        --check BENCH_service_load.json
    echo "==> live service gate: overload, shed, SIGTERM drain"
    SERVICE_DIR="$(mktemp -d)"
    cargo run -q --release --offline -p dqctd --bin dqctd -- \
        --addr 127.0.0.1:0 --port-file "$SERVICE_DIR/port" \
        --workers 1 --queue 4 \
        --inject 'seed=9,delay=1.0,delay-ms=20' \
        2>"$SERVICE_DIR/log" &
    SERVICE_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$SERVICE_DIR/port" ] && break
        sleep 0.1
    done
    if [ ! -s "$SERVICE_DIR/port" ]; then
        echo "live service gate FAILED: dqctd never wrote its port" >&2
        cat "$SERVICE_DIR/log" >&2 || true
        kill "$SERVICE_PID" 2>/dev/null || true
        exit 1
    fi
    SERVICE_PORT="$(cat "$SERVICE_DIR/port")"
    run cargo run -q --release --offline -p bench --bin service_load -- \
        --live "127.0.0.1:$SERVICE_PORT" --jobs 32 --expect-shed
    # Once every accepted job is answered, the daemon's in-flight registry
    # must be empty: both of its gauges read 0 within a bounded wait.
    echo "==> live registry gate: in-flight bytes and queue depth return to 0"
    registry_empty=0
    registry_deadline=$((SECONDS + 5))
    while [ "$SECONDS" -le "$registry_deadline" ]; do
        live_metrics="$(cargo run -q --release --offline -p dqct-cli --bin dqct -- \
            client --addr "127.0.0.1:$SERVICE_PORT" metrics 2>/dev/null || true)"
        if grep -q '"service.inflight_bytes":0[,}]' <<<"$live_metrics" &&
            grep -q '"service.queue_depth":0[,}]' <<<"$live_metrics"; then
            registry_empty=1
            break
        fi
        sleep 0.1
    done
    if [ "$registry_empty" -ne 1 ]; then
        echo "live service gate FAILED: the in-flight registry did not empty after the load" >&2
        grep -o '"service\.\(inflight_bytes\|queue_depth\)":[^,}]*' <<<"$live_metrics" >&2 || true
        kill "$SERVICE_PID" 2>/dev/null || true
        exit 1
    fi
    echo "    service.inflight_bytes and service.queue_depth read 0"
    kill -TERM "$SERVICE_PID"
    if ! wait "$SERVICE_PID"; then
        echo "live service gate FAILED: dqctd did not drain cleanly on SIGTERM" >&2
        cat "$SERVICE_DIR/log" >&2 || true
        exit 1
    fi
    if ! grep -q 'drained cleanly' "$SERVICE_DIR/log"; then
        echo "live service gate FAILED: no clean-drain marker in the daemon log" >&2
        cat "$SERVICE_DIR/log" >&2 || true
        exit 1
    fi
    rm -rf "$SERVICE_DIR"
    echo "    shed under overload, zero dropped, clean SIGTERM drain"
else
    echo "==> service gates skipped (--fast; the live drill wants release codegen)"
fi

# Crash-recovery gate: a real dqctd with a write-ahead journal is
# SIGKILLed mid-burst (an injected 50 ms/shot delay guarantees every
# admitted job is still incomplete), restarted on the same journal, and
# must replay every admitted job; retries under the original idempotency
# keys must return completed results, twice, byte-identically — and the
# replayed counts must match an uninterrupted run of the same jobs.
if [ "$FAST" -eq 0 ]; then
    echo "==> crash-recovery gate: SIGKILL mid-burst, journal replay"
    CRASH_DIR="$(mktemp -d)"
    printf '%s\n' "$GATE_QASM" >"$CRASH_DIR/gate.qasm"
    crash_client() {
        cargo run -q --release --offline -p dqct-cli --bin dqct -- \
            client --addr "127.0.0.1:$CRASH_PORT" "$@"
    }
    crash_submit() {
        crash_client submit --id "$1" --retry 20 \
            --answer 2 --shots 300 --seed 11 --deadline-ms 120000 \
            "$CRASH_DIR/gate.qasm" | tail -n 1
    }
    boot_crash_dqctd() {
        rm -f "$CRASH_DIR/port"
        cargo run -q --release --offline -p dqctd --bin dqctd -- \
            --addr 127.0.0.1:0 --port-file "$CRASH_DIR/port" \
            --journal "$CRASH_DIR/journal" --fsync always --workers 1 \
            "$@" >/dev/null 2>>"$CRASH_DIR/log" &
        CRASH_PID=$!
        for _ in $(seq 1 100); do
            [ -s "$CRASH_DIR/port" ] && break
            sleep 0.1
        done
        if [ ! -s "$CRASH_DIR/port" ]; then
            echo "crash-recovery gate FAILED: dqctd never wrote its port" >&2
            cat "$CRASH_DIR/log" >&2 || true
            kill "$CRASH_PID" 2>/dev/null || true
            exit 1
        fi
        CRASH_PORT="$(cat "$CRASH_DIR/port")"
    }
    boot_crash_dqctd --inject 'seed=3,delay=1.0,delay-ms=50'
    for i in 1 2 3; do
        crash_client submit --id "crash-$i" \
            --answer 2 --shots 300 --seed 11 --deadline-ms 120000 \
            "$CRASH_DIR/gate.qasm" >/dev/null 2>&1 &
    done
    admitted=0
    for _ in $(seq 1 100); do
        if crash_client metrics 2>/dev/null | grep -q '"service.accepted":3'; then
            admitted=1
            break
        fi
        sleep 0.1
    done
    if [ "$admitted" -ne 1 ]; then
        echo "crash-recovery gate FAILED: the burst was never fully admitted" >&2
        cat "$CRASH_DIR/log" >&2 || true
        kill -9 "$CRASH_PID" 2>/dev/null || true
        exit 1
    fi
    kill -9 "$CRASH_PID"
    wait "$CRASH_PID" 2>/dev/null || true
    boot_crash_dqctd
    REPLAYED_COUNTS=""
    for i in 1 2 3; do
        r1="$(crash_submit "crash-$i")"
        if ! grep -q '"termination":"completed"' <<<"$r1"; then
            echo "crash-recovery gate FAILED: crash-$i did not replay to completion: $r1" >&2
            cat "$CRASH_DIR/log" >&2 || true
            kill "$CRASH_PID" 2>/dev/null || true
            exit 1
        fi
        r2="$(crash_submit "crash-$i")"
        if [ "$r1" != "$r2" ]; then
            echo "crash-recovery gate FAILED: crash-$i retries are not byte-identical" >&2
            diff <(echo "$r1") <(echo "$r2") >&2 || true
            kill "$CRASH_PID" 2>/dev/null || true
            exit 1
        fi
        REPLAYED_COUNTS="$REPLAYED_COUNTS$(grep -o '"counts":{[^}]*}' <<<"$r1")
"
    done
    kill -TERM "$CRASH_PID"
    wait "$CRASH_PID" || true
    rm -f "$CRASH_DIR/journal"
    boot_crash_dqctd
    REFERENCE_COUNTS=""
    for i in 1 2 3; do
        ref="$(crash_submit "crash-$i")"
        REFERENCE_COUNTS="$REFERENCE_COUNTS$(grep -o '"counts":{[^}]*}' <<<"$ref")
"
    done
    kill -TERM "$CRASH_PID"
    wait "$CRASH_PID" || true
    if [ "$REPLAYED_COUNTS" != "$REFERENCE_COUNTS" ]; then
        echo "crash-recovery gate FAILED: replayed counts diverge from an uninterrupted run" >&2
        diff <(echo "$REPLAYED_COUNTS") <(echo "$REFERENCE_COUNTS") >&2 || true
        exit 1
    fi
    rm -rf "$CRASH_DIR"
    echo "    3 jobs replayed after SIGKILL, retries byte-identical, counts match an uninterrupted run"
else
    echo "==> crash-recovery gate skipped (--fast; the drill wants release codegen)"
fi

echo "==> all checks passed"
