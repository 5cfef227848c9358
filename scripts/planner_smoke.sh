#!/usr/bin/env bash
# Planner smoke test: start `ocqa serve --planner cost --data-dir`,
# install a multi-component database and answer it, then drift the
# database into one giant conflict component and require the automatic
# route to flip from `localized` to `monolithic`. The flip comes from
# the analytic step counts `explain` reports (localized 33 vs
# monolithic 49 before the drift, 258 vs 169 after); a structural rule
# could never make it, because the clean region keeps arguing for
# localization. Finally kill -9 the server, restart it on the same data
# dir, and require the `explain` line and the seed-101 answer to be
# byte-identical to the ones served before the crash (cache flags and
# counters aside): plan choice is a function of the data alone.
#
# Usage: scripts/planner_smoke.sh [path-to-ocqa-binary]
set -euo pipefail

BIN="${1:-target/release/ocqa}"
if [[ ! -x "$BIN" ]]; then
    echo "error: ocqa release binary not found at '$BIN'" >&2
    echo "build it first: cargo build --release -p ocqa-cli" >&2
    exit 1
fi

WORK="$(mktemp -d)"
DATA="$WORK/data"
PIDS=()
cleanup() {
    for PID in ${PIDS[@]+"${PIDS[@]}"}; do kill -9 "$PID" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

# Polls a server's stderr for a banner matching $2; prints the address.
wait_banner() {
    local FILE="$1" PATTERN="$2"
    for _ in $(seq 1 100); do
        if grep -q "$PATTERN" "$FILE" 2>/dev/null; then
            sed -n "s/.*$PATTERN \([0-9.:]*\).*/\1/p" "$FILE" | head -1
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: no '$PATTERN' banner in $FILE" >&2
    return 1
}

# Sends one NDJSON request on fd 3 and prints the response line.
request() {
    printf '%s\n' "$1" >&3
    local RESP
    IFS= read -r -t 30 -u 3 RESP || { echo "FAIL: response timed out for: $1" >&2; exit 1; }
    printf '%s\n' "$RESP"
}

# Two 3-cycles under a 2-path denial constraint plus one clean fact:
# multi-component, so the analytic costs open on localized.
CREATE='{"op":"create_db","name":"drift","facts":"Pref(a,b). Pref(b,c). Pref(c,a). Pref(d,e). Pref(e,f). Pref(f,d). Pref(q,r).","constraints":"Pref(x,y), Pref(y,z) -> false."}'
# The drift: collapse everything into one 12-node cycle; the clean fact
# survives.
DELETE='{"op":"delete","db":"drift","facts":"Pref(c,a). Pref(d,e). Pref(e,f). Pref(f,d)."}'
INSERT='{"op":"insert","db":"drift","facts":"Pref(c,d). Pref(d,e2). Pref(e2,f2). Pref(f2,g). Pref(g,h). Pref(h,i). Pref(i,j). Pref(j,k). Pref(k,l). Pref(l,a)."}'
EXPLAIN_REQ='{"op":"explain","db":"drift"}'
answer_req() {
    printf '{"op":"answer","db":"drift","query":"(x) <- exists y: Pref(x,y)","eps":0.1,"delta":0.1,"seed":%d}' "$1"
}
# Requires `explain` to price localized at $2 and monolithic at $3 steps.
expect_costs() {
    grep -q "{\"cost\":$2,\"feasible\":true,\"gate\":null,\"plan\":\"localized\"}" <<< "$1" \
        && grep -q "{\"cost\":$3,\"feasible\":true,\"gate\":null,\"plan\":\"monolithic\"}" <<< "$1" \
        || { echo "FAIL: expected localized $2 / monolithic $3 steps: $1"; exit 1; }
}
# An answer line without the fields that describe the cache, not the
# answer: `cached` and the cache hit/miss counters.
answer_bytes() {
    sed -E 's/"(cached|cache_hits|cache_misses)":[a-z0-9]+,?//g' <<< "$1"
}

# ================= Session 1: install, answer, drift =================
"$BIN" serve --shards 1 --workers 2 --cache 256 --planner cost \
    --data-dir "$DATA" --listen 127.0.0.1:0 2> "$WORK/serve1.err" &
PID=$!
disown "$PID"
PIDS+=("$PID")
ADDR="$(wait_banner "$WORK/serve1.err" 'serve: listening on')"
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"

RESP="$(request "$CREATE")"
grep -q '"ok":true' <<< "$RESP" || { echo "FAIL: create_db refused: $RESP"; exit 1; }
expect_costs "$(request "$EXPLAIN_REQ")" 33 49

for SEED in 1 2 3; do
    RESP="$(request "$(answer_req "$SEED")")"
    grep -q '"plan":"localized"' <<< "$RESP" \
        || { echo "FAIL: pre-drift answer (seed $SEED) off localized: $RESP"; exit 1; }
done

for REQ in "$DELETE" "$INSERT"; do
    RESP="$(request "$REQ")"
    grep -q '"ok":true' <<< "$RESP" || { echo "FAIL: drift update refused: $RESP"; exit 1; }
done

# Post-drift the analytic costs flip the automatic route to monolithic.
for SEED in 101 102 103; do
    RESP="$(request "$(answer_req "$SEED")")"
    grep -q '"plan":"monolithic"' <<< "$RESP" \
        || { echo "FAIL: post-drift answer (seed $SEED) did not flip: $RESP"; exit 1; }
done
BEFORE_ANSWER="$(request "$(answer_req 101)")"

BEFORE_EXPLAIN="$(request "$EXPLAIN_REQ")"
grep -q '"chosen":"monolithic"' <<< "$BEFORE_EXPLAIN" \
    || { echo "FAIL: explain did not report the flip: $BEFORE_EXPLAIN"; exit 1; }
expect_costs "$BEFORE_EXPLAIN" 258 169
exec 3<&- 3>&-
echo "OK: drifted database flipped localized -> monolithic (258 vs 169 steps)"

kill -9 "$PID"
wait "$PID" 2>/dev/null || true

# ====== Session 2: restart, plan choice and answers must hold ========
"$BIN" serve --shards 1 --workers 2 --cache 256 --planner cost \
    --data-dir "$DATA" --listen 127.0.0.1:0 2> "$WORK/serve2.err" &
PID=$!
disown "$PID"
PIDS+=("$PID")
ADDR="$(wait_banner "$WORK/serve2.err" 'serve: listening on')"
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"

EXPLAIN="$(request "$EXPLAIN_REQ")"
[[ "$EXPLAIN" == "$BEFORE_EXPLAIN" ]] \
    || { echo "FAIL: explain changed across the restart:"; echo "  before: $BEFORE_EXPLAIN"; echo "  after:  $EXPLAIN"; exit 1; }
RESP="$(request "$(answer_req 101)")"
grep -q '"cached":false' <<< "$RESP" || { echo "FAIL: restarted cache not empty: $RESP"; exit 1; }
[[ "$(answer_bytes "$RESP")" == "$(answer_bytes "$BEFORE_ANSWER")" ]] \
    || { echo "FAIL: seed-101 answer changed across the restart:"; echo "  before: $BEFORE_ANSWER"; echo "  after:  $RESP"; exit 1; }
exec 3<&- 3>&-
echo "OK: restart served the same explain and seed-101 answer bytes"
