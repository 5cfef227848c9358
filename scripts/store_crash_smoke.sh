#!/usr/bin/env bash
# Crash-recovery smoke test for ocqa-store: start `ocqa serve --data-dir`,
# install a database and answer a query, `kill -9` the server, restart it
# over the same directory, and require the restarted server to hold the
# database and answer the same request bit-identically. Runs twice:
# single-shard, then `--shards 4` (per-shard stores under shard-<k>/,
# every shard recovered after the SIGKILL, answers identical to the
# single-shard run modulo the reported shard).
#
# Usage: scripts/store_crash_smoke.sh [path-to-ocqa-binary]
# Fails fast with a clear message if the binary has not been built.
set -euo pipefail

BIN="${1:-target/release/ocqa}"
if [[ ! -x "$BIN" ]]; then
    echo "error: ocqa release binary not found at '$BIN'" >&2
    echo "build it first: cargo build --release -p ocqa-cli" >&2
    exit 1
fi

WORK="$(mktemp -d)"
DATA="$WORK/data"
trap 'rm -rf "$WORK"; kill -9 "${SERVE_PID:-0}" 2>/dev/null || true' EXIT

CREATE='{"op":"create_db","name":"kv","facts":"R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).","constraints":"R(x,y), R(x,z) -> y = z."}'
ANSWER='{"op":"answer","db":"kv","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}'

# Placement-dependent field; everything else must be bit-identical
# across shard counts.
strip_shard() { sed -E 's/,"shard":[0-9]+//'; }

# --- Session 1: keep stdin open through a FIFO so we can SIGKILL mid-session.
mkfifo "$WORK/in"
"$BIN" serve --workers 2 --data-dir "$DATA" < "$WORK/in" > "$WORK/out1" 2>/dev/null &
SERVE_PID=$!
exec 3> "$WORK/in"
printf '%s\n' "$CREATE" >&3
printf '%s\n' "$ANSWER" >&3

for _ in $(seq 1 100); do
    [[ "$(wc -l < "$WORK/out1")" -ge 2 ]] && break
    sleep 0.1
done
[[ "$(wc -l < "$WORK/out1")" -ge 2 ]] || { echo "FAIL: server produced no answer"; exit 1; }

kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
exec 3>&-

FIRST_ANSWER="$(sed -n '2p' "$WORK/out1")"
grep -q '"plan":"key-repair"' <<< "$FIRST_ANSWER" || { echo "FAIL: unexpected first answer: $FIRST_ANSWER"; exit 1; }

# --- Session 2: restart over the same data dir; answer must be identical.
printf '%s\n' "$ANSWER" | "$BIN" serve --workers 2 --data-dir "$DATA" > "$WORK/out2" 2>/dev/null
SECOND_ANSWER="$(sed -n '1p' "$WORK/out2")"

if [[ "$FIRST_ANSWER" != "$SECOND_ANSWER" ]]; then
    echo "FAIL: restored answer differs"
    echo "  before kill: $FIRST_ANSWER"
    echo "  after kill:  $SECOND_ANSWER"
    exit 1
fi

# --- Offline compaction, then one more restart to read pure snapshots.
"$BIN" snapshot --data-dir "$DATA" --db kv > /dev/null
printf '%s\n' "$ANSWER" | "$BIN" serve --workers 2 --data-dir "$DATA" > "$WORK/out3" 2>/dev/null
THIRD_ANSWER="$(sed -n '1p' "$WORK/out3")"
if [[ "$FIRST_ANSWER" != "$THIRD_ANSWER" ]]; then
    echo "FAIL: post-compaction answer differs"
    echo "  before kill:  $FIRST_ANSWER"
    echo "  post compact: $THIRD_ANSWER"
    exit 1
fi

echo "OK: kill -9 recovery and compaction both serve bit-identical answers"

# ===================== Sharded run: --shards 4 ======================
SHARDED="$WORK/sharded"
# Several names so the rendezvous router spreads them over the shards.
NAMES="kv orders users events billing"

mkfifo "$WORK/in4"
"$BIN" serve --workers 2 --shards 4 --data-dir "$SHARDED" < "$WORK/in4" > "$WORK/out4" 2>/dev/null &
SERVE_PID=$!
exec 4> "$WORK/in4"
for NAME in $NAMES; do
    printf '{"op":"create_db","name":"%s","facts":"R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).","constraints":"R(x,y), R(x,z) -> y = z."}\n' "$NAME" >&4
done
for NAME in $NAMES; do
    printf '{"op":"answer","db":"%s","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}\n' "$NAME" >&4
done

EXPECTED=$((2 * $(wc -w <<< "$NAMES")))
for _ in $(seq 1 100); do
    [[ "$(wc -l < "$WORK/out4")" -ge "$EXPECTED" ]] && break
    sleep 0.1
done
[[ "$(wc -l < "$WORK/out4")" -ge "$EXPECTED" ]] || { echo "FAIL: sharded server produced no answers"; exit 1; }

kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
exec 4>&-

# Every shard must have its own store (per-shard LOCK + WAL).
for K in 0 1 2 3; do
    [[ -f "$SHARDED/shard-$K/wal.log" ]] || { echo "FAIL: shard-$K has no WAL"; exit 1; }
    [[ -f "$SHARDED/shard-$K/LOCK"   ]] || { echo "FAIL: shard-$K has no LOCK"; exit 1; }
done

# The sharded answer for kv matches the single-shard run bit-for-bit
# once the placement-dependent shard tag is stripped.
SHARDED_KV="$(grep '"answers"' "$WORK/out4" | head -1 | strip_shard)"
SINGLE_KV="$(strip_shard <<< "$FIRST_ANSWER")"
if [[ "$SHARDED_KV" != "$SINGLE_KV" ]]; then
    echo "FAIL: sharded answer differs from single-shard answer"
    echo "  1 shard:  $SINGLE_KV"
    echo "  4 shards: $SHARDED_KV"
    exit 1
fi

# Restart after the SIGKILL: every shard recovers, every database
# answers bit-identically to its pre-kill response.
for NAME in $NAMES; do
    printf '{"op":"answer","db":"%s","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}\n' "$NAME"
done | "$BIN" serve --workers 2 --shards 4 --data-dir "$SHARDED" > "$WORK/out5" 2>/dev/null

N=$(wc -w <<< "$NAMES")
for I in $(seq 1 "$N"); do
    BEFORE="$(grep '"answers"' "$WORK/out4" | sed -n "${I}p")"
    AFTER="$(sed -n "${I}p" "$WORK/out5")"
    if [[ "$BEFORE" != "$AFTER" ]]; then
        echo "FAIL: shard recovery answer $I differs"
        echo "  before kill: $BEFORE"
        echo "  after kill:  $AFTER"
        exit 1
    fi
done

# Offline compaction folds every shard's WAL; answers stay identical.
"$BIN" snapshot --data-dir "$SHARDED" > /dev/null
for NAME in $NAMES; do
    printf '{"op":"answer","db":"%s","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}\n' "$NAME"
done | "$BIN" serve --workers 2 --shards 4 --data-dir "$SHARDED" > "$WORK/out6" 2>/dev/null
if ! diff -q "$WORK/out5" "$WORK/out6" > /dev/null; then
    echo "FAIL: post-compaction sharded answers differ"
    diff "$WORK/out5" "$WORK/out6" || true
    exit 1
fi

echo "OK: --shards 4 kill -9 recovery restores every shard bit-identically"
