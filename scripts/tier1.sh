#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in the order that fails
# fastest. Run from the repository root:
#
#   ./scripts/tier1.sh
#
# Also regenerates BENCH_hotpath.json (fixed seeds, deterministic) so the
# hot-path overhead and allocation gates run against a fresh measurement.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo check --locked --manifest-path perfbench/Cargo.toml (the benchmark still"
echo "    builds against the graph and gnn APIs it calls)"
cargo check --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace under RUSTDOCFLAGS=\"-D warnings\" (broken and"
echo "    private intra-doc links fail; so does any cargo warning, such as two crates"
echo "    documenting to one path)"
DOC_LOG="$(mktemp)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace 2>&1 | tee "$DOC_LOG"
if grep -q "warning:" "$DOC_LOG"; then
    echo "cargo doc: warnings above"; rm -f "$DOC_LOG"; exit 1
fi
rm -f "$DOC_LOG"

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q -p grimp-core --features fault-injection (fault-injection suite)"
cargo test -q -p grimp-core --features fault-injection

echo "==> chaos harness (adversarial inputs + corrupted-checkpoint fallback + CLI exit codes)"
cargo test -q -p grimp-core --test chaos
cargo test -q -p grimp-cli --test exit_codes
cargo run --release -p grimp-cli --bin grimp -- chaos --seed 1

echo "==> resource governance (deadline/budget/shutdown/lock/IO-fault matrix, core + real binary)"
cargo test -q -p grimp-core --test resource
cargo test -q -p grimp-cli --test governance

echo "==> grimp-obs gate (clippy -D warnings + tests incl. zero-alloc NullSink)"
cargo clippy -p grimp-obs --all-targets -- -D warnings
cargo test -q -p grimp-obs

echo "==> parallel kernel backend (Serial vs Parallel bit-identity, kernel + end-to-end)"
cargo test -q -p grimp-tensor --test backend_parity
cargo test -q -p grimp-core --test backend_e2e

echo "==> hotpath probe (writes BENCH_hotpath.json; asserts NullSink + guard overhead < 2%"
echo "    against the previous fast time, parallel-backend bit-identity, and 0 workspace"
echo "    allocs after epoch 1 on both backends)"
cargo run --release -p grimp-bench --bin hotpath_probe -- --threads 2

echo "==> examples over the shared engine (inductive reuse through Pipeline, FedAvg)"
cargo run --release --example inductive_reuse
cargo run --release --example federated

echo "==> sampled training gate (50k-row XL synthetic under a 24 MB budget must take"
echo "    the sampling rung and still fill every cell)"
SCALE_DIR="$(mktemp -d)"
./target/release/grimp generate XL --rows 50000 -o "$SCALE_DIR/xl.csv" > /dev/null
./target/release/grimp corrupt "$SCALE_DIR/xl.csv" --rate 0.1 --seed 3 \
    -o "$SCALE_DIR/xl-dirty.csv" > /dev/null
./target/release/grimp impute "$SCALE_DIR/xl-dirty.csv" --algo grimp \
    --memory-budget-mb 24 --threads 2 -o "$SCALE_DIR/xl-imputed.csv" \
    > "$SCALE_DIR/impute.log"
grep -q "downscaled sample ->" "$SCALE_DIR/impute.log" \
    || { echo "sampled gate: budget run never took the sampling rung"; cat "$SCALE_DIR/impute.log"; exit 1; }
grep -q "; 0 cells remain missing" "$SCALE_DIR/impute.log" \
    || { echo "sampled gate: imputation incomplete"; cat "$SCALE_DIR/impute.log"; exit 1; }
rm -rf "$SCALE_DIR"

echo "==> incremental append gate (fit, kill -9 mid-append, replay the pending log;"
echo "    recovery must be bit-for-bit identical to an uninterrupted append)"
INCR_DIR="$(mktemp -d)"
./target/release/grimp generate XL --rows 3000 -o "$INCR_DIR/base.csv" > /dev/null
./target/release/grimp corrupt "$INCR_DIR/base.csv" --rate 0.05 --seed 3 \
    -o "$INCR_DIR/base-dirty.csv" > /dev/null
./target/release/grimp impute "$INCR_DIR/base-dirty.csv" --algo grimp \
    --checkpoint-dir "$INCR_DIR/ckpt" -o "$INCR_DIR/fitted.csv" > /dev/null
# The delta reuses dirty base rows (holes included, no new dictionary
# values), so the append must take the warm-start fine-tune path.
head -9 "$INCR_DIR/base-dirty.csv" > "$INCR_DIR/delta.csv"
cp -r "$INCR_DIR/ckpt" "$INCR_DIR/ckpt-ref"
./target/release/grimp append "$INCR_DIR/base-dirty.csv" --rows "$INCR_DIR/delta.csv" \
    --checkpoint-dir "$INCR_DIR/ckpt-ref" -o "$INCR_DIR/ref.csv" > "$INCR_DIR/ref.log"
grep -q "via finetune" "$INCR_DIR/ref.log" \
    || { echo "incremental gate: reference append did not fine-tune"; cat "$INCR_DIR/ref.log"; exit 1; }
grep -q "; 0 cells remain missing" "$INCR_DIR/ref.log" \
    || { echo "incremental gate: reference append incomplete"; cat "$INCR_DIR/ref.log"; exit 1; }
# Crash arm: kill -9 as soon as the append log is durable. Wherever the
# kill lands — before, during, or after the fine-tune — replaying the
# identical append must converge to the reference, bit for bit.
./target/release/grimp append "$INCR_DIR/base-dirty.csv" --rows "$INCR_DIR/delta.csv" \
    --checkpoint-dir "$INCR_DIR/ckpt" -o "$INCR_DIR/crash.csv" > /dev/null 2>&1 &
APPEND_PID=$!
for _ in $(seq 1 100); do
    { [ -e "$INCR_DIR/ckpt/grimp.wal" ] || [ -e "$INCR_DIR/ckpt/grimp.wal.applied" ]; } && break
    sleep 0.05
done
kill -9 "$APPEND_PID" 2>/dev/null || true
wait "$APPEND_PID" 2>/dev/null || true
if [ ! -e "$INCR_DIR/ckpt/grimp.wal" ]; then
    # The append outran the kill and already rotated its log; un-rotate it
    # so the rerun still exercises the replay path (a no-op fine-tune).
    mv "$INCR_DIR/ckpt/grimp.wal.applied" "$INCR_DIR/ckpt/grimp.wal"
fi
./target/release/grimp append "$INCR_DIR/base-dirty.csv" --rows "$INCR_DIR/delta.csv" \
    --checkpoint-dir "$INCR_DIR/ckpt" -o "$INCR_DIR/recovered.csv" > "$INCR_DIR/recover.log"
grep -q "; 0 cells remain missing" "$INCR_DIR/recover.log" \
    || { echo "incremental gate: recovery incomplete"; cat "$INCR_DIR/recover.log"; exit 1; }
cmp "$INCR_DIR/ref.csv" "$INCR_DIR/recovered.csv" \
    || { echo "incremental gate: recovered imputation differs from the uninterrupted run"; exit 1; }
cmp "$INCR_DIR/ckpt-ref/grimp.ckpt" "$INCR_DIR/ckpt/grimp.ckpt" \
    || { echo "incremental gate: recovered checkpoint differs from the uninterrupted run"; exit 1; }
test -e "$INCR_DIR/ckpt/grimp.wal.applied" \
    || { echo "incremental gate: append log never rotated to applied"; exit 1; }
rm -rf "$INCR_DIR"

echo "==> scaling probe (writes BENCH_scaling.json; rows/sec + footprint at 5k/50k/250k rows,"
echo "    250k-row governed run under a budget the full-graph path cannot admit,"
echo "    append fine-tune throughput vs base fit)"
cargo run --release -p grimp-bench --bin scaling_probe

echo "==> serve suite (fault matrix against a live server + real-binary drain/reload tests)"
cargo test -q -p grimp-serve
cargo test -q -p grimp-cli --test serve_integration

echo "==> serve smoke (real binary: fit, serve over HTTP, impute, append, SIGTERM drain,"
echo "    exit 0; the append's generation is the model its fine-tune built, not a restore)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
printf 'city,country\nParis,France\nRome,Italy\nParis,\nRome,\nParis,France\nMadrid,Spain\nMadrid,\nRome,Italy\n' \
    > "$SMOKE_DIR/train.csv"
./target/release/grimp impute "$SMOKE_DIR/train.csv" --algo grimp \
    --checkpoint-dir "$SMOKE_DIR/ckpt" -o "$SMOKE_DIR/imputed.csv" > /dev/null
./target/release/grimp serve "$SMOKE_DIR/train.csv" --checkpoint-dir "$SMOKE_DIR/ckpt" \
    --addr 127.0.0.1:0 --trace-out "$SMOKE_DIR/trace.jsonl" > "$SMOKE_DIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$SMOKE_DIR/serve.log" 2>/dev/null && break
    sleep 0.1
done
SERVE_ADDR="$(sed -n 's/^grimp serve listening on \([^ ]*\).*/\1/p' "$SMOKE_DIR/serve.log")"
test -n "$SERVE_ADDR" || { echo "serve smoke: no announcement line"; exit 1; }
SERVE_HOST="${SERVE_ADDR%:*}"; SERVE_PORT="${SERVE_ADDR##*:}"
BODY='city,country
Paris,
Madrid,'
REQUEST="$(printf 'POST /impute HTTP/1.1\r\nHost: grimp\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "${#BODY}" "$BODY")"
RESPONSE="$(printf '%s' "$REQUEST" | timeout 30 bash -c \
    "exec 3<>/dev/tcp/$SERVE_HOST/$SERVE_PORT; cat >&3; cat <&3")"
printf '%s' "$RESPONSE" | head -1 | grep -q "200" \
    || { echo "serve smoke: impute did not return 200"; echo "$RESPONSE"; exit 1; }
printf '%s' "$RESPONSE" | grep -q "Paris," \
    || { echo "serve smoke: response body is not the imputed CSV"; echo "$RESPONSE"; exit 1; }
smoke_request() { # $1 = method, $2 = path, $3 = body; prints the HTTP response
    printf '%s %s HTTP/1.1\r\nHost: grimp\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
        "$1" "$2" "${#3}" "$3" | timeout 60 bash -c \
        "exec 3<>/dev/tcp/$SERVE_HOST/$SERVE_PORT; cat >&3; cat <&3"
}
APPENDED="$(smoke_request POST /append 'city,country
Rome,')"
printf '%s' "$APPENDED" | head -1 | grep -q " 200 " \
    || { echo "serve smoke: append of seen values did not return 200"; echo "$APPENDED"; exit 1; }
STATS="$(smoke_request GET /stats '')"
for want in '"appends":1' '"reloads":0' '"generation":1'; do
    printf '%s' "$STATS" | grep -q "$want" \
        || { echo "serve smoke: /stats lacks $want after one append"; echo "$STATS"; exit 1; }
done
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "serve smoke: SIGTERM drain exited non-zero"; exit 1; }
grep -q "drained clean" "$SMOKE_DIR/serve.log" \
    || { echo "serve smoke: no clean-drain summary"; cat "$SMOKE_DIR/serve.log"; exit 1; }
grep -q '"name":"drain_end"' "$SMOKE_DIR/trace.jsonl" \
    || { echo "serve smoke: trace missing drain_end"; exit 1; }
FIT_SPANS="$(grep -c '"kind":"span_exit","name":"fit"' "$SMOKE_DIR/trace.jsonl" || true)"
test "$FIT_SPANS" -eq 1 \
    || { echo "serve smoke: $FIT_SPANS model builds in the trace, want 1 (the bind's restore)"; exit 1; }

echo "==> supervised serve gate (real binary: kill -9 the serving child mid-traffic;"
echo "    the supervisor respawns it and a keyed append replays idempotently)"
SUP_DIR="$(mktemp -d)"
printf 'city,country\nParis,France\nRome,Italy\nParis,\nRome,\nParis,France\nMadrid,Spain\nMadrid,\nRome,Italy\n' \
    > "$SUP_DIR/train.csv"
./target/release/grimp impute "$SUP_DIR/train.csv" --algo grimp \
    --checkpoint-dir "$SUP_DIR/ckpt" -o "$SUP_DIR/imputed.csv" > /dev/null
./target/release/grimp serve "$SUP_DIR/train.csv" --checkpoint-dir "$SUP_DIR/ckpt" \
    --addr 127.0.0.1:0 --workers 1 --supervise --restart-limit 3 --backoff-base-ms 50 \
    > "$SUP_DIR/sup.log" &
SUP_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$SUP_DIR/sup.log" 2>/dev/null && break
    sleep 0.1
done
CHILD_PID="$(sed -n 's/^grimp supervise: child pid \([0-9]*\) up$/\1/p' "$SUP_DIR/sup.log" | head -1)"
SUP_ADDR="$(sed -n 's/^grimp serve listening on \([^ ]*\).*/\1/p' "$SUP_DIR/sup.log" | head -1)"
test -n "$CHILD_PID" && test -n "$SUP_ADDR" \
    || { echo "supervised gate: no child/announcement"; cat "$SUP_DIR/sup.log"; exit 1; }
sup_append() { # $1 = host:port; prints the HTTP response
    local BODY=$'city,country\nParis,\n,Italy' HOST PORT
    HOST="${1%:*}"; PORT="${1##*:}"
    printf 'POST /append HTTP/1.1\r\nHost: grimp\r\nIdempotency-Key: tier1-sup\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
        "${#BODY}" "$BODY" | timeout 60 bash -c \
        "exec 3<>/dev/tcp/$HOST/$PORT; cat >&3; cat <&3" || true
}
FIRST="$(sup_append "$SUP_ADDR")"
printf '%s' "$FIRST" | head -1 | grep -q " 200 " \
    || { echo "supervised gate: keyed append did not return 200"; echo "$FIRST"; exit 1; }
kill -9 "$CHILD_PID"
for _ in $(seq 1 200); do
    NEW_ADDR="$(sed -n 's/^grimp serve listening on \([^ ]*\).*/\1/p' "$SUP_DIR/sup.log" | sed -n 2p)"
    test -n "$NEW_ADDR" && break
    sleep 0.1
done
test -n "$NEW_ADDR" || { echo "supervised gate: no respawn after kill -9"; cat "$SUP_DIR/sup.log"; exit 1; }
grep -q "killed by signal 9" "$SUP_DIR/sup.log" \
    || { echo "supervised gate: crash not reported"; cat "$SUP_DIR/sup.log"; exit 1; }
REPLAY="$(sup_append "$NEW_ADDR")"
printf '%s' "$REPLAY" | head -1 | grep -q " 200 " \
    || { echo "supervised gate: replayed append did not return 200"; echo "$REPLAY"; exit 1; }
printf '%s' "$REPLAY" | grep -qi "Idempotency-Replay: true" \
    || { echo "supervised gate: replay was not answered from the journal"; echo "$REPLAY"; exit 1; }
REPLAY_ROWS="$(printf '%s\n' "$REPLAY" | sed -n '/^city,country/,$p' | grep -c ',')"
test "$REPLAY_ROWS" -eq 11 \
    || { echo "supervised gate: replay rows $REPLAY_ROWS != 11 (header + 8 base + 2 delta)"; echo "$REPLAY"; exit 1; }
kill -TERM "$SUP_PID"
wait "$SUP_PID" || { echo "supervised gate: SIGTERM exit non-zero"; cat "$SUP_DIR/sup.log"; exit 1; }
rm -rf "$SUP_DIR"

echo "==> crashpoint sweep (abort the server at every state-mutating boundary;"
echo "    supervisor + idempotent replay must recover each one)"
./target/release/grimp chaos --crashpoints

echo "==> load probe (writes BENCH_serve.json at 1, 2 and 4 workers; asserts 200s, zero shed,"
echo "    clean drain, and one model restore per server)"
cargo run --release -p grimp-bench --bin load_probe

echo "tier1: all green"
