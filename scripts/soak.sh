#!/bin/sh
# Real-process smoke for atsimd: the one check the in-process crash
# tests (TestCrashSchedules and friends in internal/server) cannot
# make — that the built binaries start, serve, survive a real SIGKILL
# and drain on SIGTERM.
#
# Usage: scripts/soak.sh [N]
#
# Starts atsimd, runs N sessions (default 100) through `atsimload load`
# under its SLO, scrapes /metrics, SIGKILLs the server under live load,
# restarts it over the same data directory and checks the restored
# session count (at least one session, at most one per load worker:
# every acknowledged delete stayed deleted), then drains on SIGTERM.
# Every crash invariant beyond "a restart restores" is checked in
# process, from seeds; see docs/SERVICE.md.
set -e
cd "$(dirname "$0")/.."

n=${1:-100}
workers=16
server_pid=""
work=$(mktemp -d)
load_pid=""
trap 'kill -9 "$server_pid" $load_pid 2>/dev/null || true; rm -rf "$work"' EXIT
go build -o "$work/atsimd" ./cmd/atsimd
go build -o "$work/atsimload" ./cmd/atsimload

start_server() {
    "$work/atsimd" -addr 127.0.0.1:0 -data "$work/data" \
        -drain-timeout 30s > "$work/server.log" 2>&1 &
    server_pid=$!
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's/^atsimd: listening on //p' "$work/server.log" | head -1)
        [ -n "$addr" ] && break
        kill -0 "$server_pid" 2>/dev/null || {
            echo "soak: atsimd died on startup:" >&2
            cat "$work/server.log" >&2; exit 1; }
        i=$((i+1)); sleep 0.1
    done
    [ -n "$addr" ] || { echo "soak: no listen line" >&2; exit 1; }
    url="http://$addr"
    "$work/atsimload" -server "$url" -timeout 30s wait
}

echo "== soak: load SLO =="
start_server
"$work/atsimload" -server "$url" -n "$n" -c "$workers" \
    -slo-rate 1.0 -slo-p99 30s -quanta 3 \
    -summary-json "$work/load-summary.json" load
grep -q '"step_latency"' "$work/load-summary.json" || {
    echo "soak: load summary lacks step latency" >&2; exit 1; }

echo "== soak: metrics scrape =="
"$work/atsimload" -server "$url" -expect \
    "atsimd_admission_wait_seconds,atsimd_eviction_seconds,atsimd_snapshot_write_seconds,atsimd_steps_total" \
    metrics

echo "== soak: SIGKILL under load, restart =="
"$work/atsimload" -server "$url" -n 100000 -c "$workers" -quanta 1 \
    -timeout 5s -slo-rate 0 load > /dev/null 2>&1 &
load_pid=$!
sleep 1
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
# The load client stops starting sessions once an operation gets no
# response, so it exits on its own within one retry schedule.
wait "$load_pid" 2>/dev/null || true
start_server
restored=$(sed -n 's/^atsimd: restored \([0-9]*\) sessions.*/\1/p' "$work/server.log")
[ "${restored:-0}" -ge 1 ] && [ "${restored:-0}" -le "$workers" ] || {
    echo "soak: restored ${restored:-0} sessions, want 1..$workers" >&2; exit 1; }

echo "== soak: SIGTERM drains cleanly =="
kill -TERM "$server_pid"
wait "$server_pid" || { echo "soak: drain exited nonzero" >&2; exit 1; }
grep -q 'drained cleanly' "$work/server.log" || {
    echo "soak: no clean-drain line" >&2; exit 1; }

echo "soak: passed ($n sessions under SLO, $restored restored after SIGKILL)"
