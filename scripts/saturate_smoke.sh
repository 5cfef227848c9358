#!/usr/bin/env bash
# Saturation smoke test: a bounded connection-worker pool (2 workers)
# multiplexing 64 concurrent clients of mixed answer/insert load over a
# durable store (one fsync per acknowledged mutation), then `kill -9`. Every insert the server
# acknowledged before the kill must be durable: the restarted store's
# fact count has to equal the base facts plus every acked insert.
#
# Usage: scripts/saturate_smoke.sh [path-to-ocqa-binary]
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

INSERTERS=32
ANSWERERS=32
PER_CLIENT=4
BASE_FACTS=5

"$BIN" serve --listen 127.0.0.1:0 --workers 2 --conn-workers 2 \
    --data-dir "$DATA" > /dev/null 2> "$WORK/err" &
SERVE_PID=$!

PORT=""
for _ in $(seq 1 100); do
    PORT="$(sed -nE 's/.*listening on 127\.0\.0\.1:([0-9]+).*/\1/p' "$WORK/err" | head -1)"
    [[ -n "$PORT" ]] && break
    sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: server never started listening"; cat "$WORK/err"; exit 1; }

# Install the database over the wire; distinct keys keep it consistent,
# so inserts never interact and the final count is exact.
exec 3<> "/dev/tcp/127.0.0.1/$PORT"
printf '{"op":"create_db","name":"sat","facts":"R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).","constraints":"R(x,y), R(x,z) -> y = z."}\n' >&3
read -r CREATED <&3
grep -q '"ok":true' <<< "$CREATED" || { echo "FAIL: create_db: $CREATED"; exit 1; }
exec 3>&-

# Each inserter client writes PER_CLIENT unique facts, recording one
# line per *acknowledged* insert; each answerer runs PER_CLIENT cold
# answers with distinct seeds. 64 sessions share 2 connection workers.
inserter() {
    local id=$1 fd_in fd_out key
    exec {fd_in}<>"/dev/tcp/127.0.0.1/$PORT"
    for i in $(seq 1 "$PER_CLIENT"); do
        key=$((1000 + id * 10 + i))
        printf '{"op":"insert","db":"sat","facts":"R(%s,%s)."}\n' "$key" "$key" >&"$fd_in"
        read -r line <&"$fd_in"
        grep -q '"ok":true' <<< "$line" && echo "$key" >> "$WORK/acked-$id"
    done
    exec {fd_in}>&-
}

answerer() {
    local id=$1 fd_in
    exec {fd_in}<>"/dev/tcp/127.0.0.1/$PORT"
    for i in $(seq 1 "$PER_CLIENT"); do
        printf '{"op":"answer","db":"sat","query":"(x) <- exists y: R(x,y)","eps":0.3,"delta":0.3,"seed":%s}\n' "$((id * 100 + i))" >&"$fd_in"
        read -r line <&"$fd_in"
        grep -q '"answers"' <<< "$line" && echo ok >> "$WORK/answered-$id"
    done
    exec {fd_in}>&-
}

PIDS=()
for id in $(seq 1 "$INSERTERS"); do inserter "$id" & PIDS+=($!); done
for id in $(seq 1 "$ANSWERERS"); do answerer "$id" & PIDS+=($!); done
for pid in "${PIDS[@]}"; do wait "$pid"; done

ACKED=$(cat "$WORK"/acked-* 2>/dev/null | wc -l)
ANSWERED=$(cat "$WORK"/answered-* 2>/dev/null | wc -l)
[[ "$ACKED" -eq $((INSERTERS * PER_CLIENT)) ]] || { echo "FAIL: only $ACKED/$((INSERTERS * PER_CLIENT)) inserts acked"; exit 1; }
[[ "$ANSWERED" -eq $((ANSWERERS * PER_CLIENT)) ]] || { echo "FAIL: only $ANSWERED/$((ANSWERERS * PER_CLIENT)) answers served"; exit 1; }

kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true

# Every acknowledged insert must have survived the SIGKILL: the offline
# compactor reports the restored fact count.
FACTS="$("$BIN" snapshot --data-dir "$DATA" | sed -nE 's/.*sat: version [0-9]+, ([0-9]+) facts.*/\1/p')"
EXPECTED=$((BASE_FACTS + ACKED))
if [[ "$FACTS" != "$EXPECTED" ]]; then
    echo "FAIL: restored store holds $FACTS facts, expected $EXPECTED ($ACKED acked inserts)"
    exit 1
fi

echo "OK: 64 clients over 2 conn-workers; all $ACKED acked inserts durable after kill -9"
