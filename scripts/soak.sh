#!/bin/sh
# Chaos soak: SIGKILL a checkpointing simulation at random moments,
# resume it from its last snapshot, and assert the survivor's final
# state fingerprint is bit-identical to an uninterrupted run's — the
# end-to-end proof that crash recovery loses nothing.
#
# Usage: scripts/soak.sh [soak flags...]
#        scripts/soak.sh server [N]
#        scripts/soak.sh migrate [N]
#
# With no flags, runs a default matrix: a clean multi-CPU run and a
# fault-injected one, a handful of kills each. Any flags are passed
# through to one cmd/soak invocation instead (see cmd/soak -h).
#
# "server" runs the SERVICE-level chaos gate instead: start atsimd,
# admit N sessions (default 200), SIGKILL the server under live step
# traffic, restart it over the same data directory, verify a panic
# session fails in isolation, run every surviving session to
# completion, and require the fingerprints to match uninterrupted
# control twins byte for byte — then a load-mode SLO smoke and a clean
# SIGTERM drain.
#
# "migrate" runs the cross-instance MIGRATION chaos gate: two atsimd
# instances, a SIGKILL of the source or the target at every protocol
# phase boundary (-chaos-migrate-kill) plus random mid-transfer kills,
# restart over the same directories, automatic intent resolution, then
# N sessions (default 30) migrated under live step traffic. Every
# session must finish exactly once — on whichever side owns it —
# byte-identical to an uninterrupted control twin, with the source
# answering 410 + Location and the target's /obs stream gap-free
# across the handoff (both asserted inside "atsimload migrate").
set -e
cd "$(dirname "$0")/.."

if [ "${1:-}" = server ]; then
    shift
    n=${1:-200}
    server_pid=""
    work=$(mktemp -d)
    trap 'kill -9 "$server_pid" 2>/dev/null || true; rm -rf "$work"' EXIT
    go build -o "$work/atsimd" ./cmd/atsimd
    go build -o "$work/atsimload" ./cmd/atsimload
    data="$work/data"

    start_server() {
        "$work/atsimd" -addr 127.0.0.1:0 -data "$data" -chaos \
            -max-live 32 -drain-timeout 30s > "$work/server.log" 2>&1 &
        server_pid=$!
        addr=""
        i=0
        while [ $i -lt 100 ]; do
            addr=$(sed -n 's/^atsimd: listening on //p' "$work/server.log" | head -1)
            [ -n "$addr" ] && break
            kill -0 "$server_pid" 2>/dev/null || {
                echo "soak server: atsimd died on startup:" >&2
                cat "$work/server.log" >&2; exit 1; }
            i=$((i+1)); sleep 0.1
        done
        [ -n "$addr" ] || { echo "soak server: no listen line" >&2; exit 1; }
        url="http://$addr"
        "$work/atsimload" -server "$url" -timeout 30s wait
    }

    echo "== soak server: admit $n sessions =="
    start_server
    "$work/atsimload" -server "$url" -n "$n" -c 32 -state "$work/state.json" create

    echo "== soak server: SIGKILL under live step traffic =="
    "$work/atsimload" -server "$url" -c 32 -quanta 2 -timeout 5s \
        -state "$work/state.json" -best-effort step || true &
    traffic_pid=$!
    sleep 1
    kill -9 "$server_pid"
    wait "$server_pid" 2>/dev/null || true
    wait "$traffic_pid" 2>/dev/null || true

    echo "== soak server: restart over the same data dir =="
    start_server
    restored=$(sed -n 's/^atsimd: restored \([0-9]*\) sessions.*/\1/p' "$work/server.log")
    [ "${restored:-0}" -ge "$n" ] || {
        echo "soak server: restored ${restored:-0} sessions, want >= $n" >&2; exit 1; }

    echo "== soak server: panic isolation probe =="
    "$work/atsimload" -server "$url" chaos

    echo "== soak server: finish survivors vs uninterrupted controls =="
    "$work/atsimload" -server "$url" -c 32 -state "$work/state.json" \
        -out "$work/finish.txt" finish
    "$work/atsimload" -server "$url" -c 32 -state "$work/state.json" \
        -out "$work/control.txt" control
    cmp "$work/finish.txt" "$work/control.txt" || {
        echo "soak server: fingerprints diverged after SIGKILL/restart" >&2; exit 1; }

    echo "== soak server: load SLO smoke =="
    "$work/atsimload" -server "$url" -n 100 -c 32 -seed-base 50000 \
        -slo-rate 1.0 -slo-p99 30s -quanta 3 \
        -summary-json "$work/load-summary.json" load
    grep -q '"step_latency"' "$work/load-summary.json" || {
        echo "soak server: load summary lacks step latency" >&2; exit 1; }

    echo "== soak server: metrics scrape =="
    "$work/atsimload" -server "$url" -expect \
        "atsimd_admission_wait_seconds,atsimd_eviction_seconds,atsimd_snapshot_write_seconds,atsimd_flight_dumps_total" \
        metrics

    echo "== soak server: SIGTERM drains cleanly =="
    kill -TERM "$server_pid"
    wait "$server_pid" || { echo "soak server: drain exited nonzero" >&2; exit 1; }
    grep -q 'drained cleanly' "$work/server.log" || {
        echo "soak server: no clean-drain line" >&2; exit 1; }

    echo "soak server: all gates passed ($n sessions survived SIGKILL byte-identically)"
    exit 0
fi

if [ "${1:-}" = migrate ]; then
    shift
    n=${1:-30}
    a_pid=""; b_pid=""
    work=$(mktemp -d)
    trap 'kill -9 "$a_pid" "$b_pid" 2>/dev/null || true; rm -rf "$work"' EXIT
    go build -o "$work/atsimd" ./cmd/atsimd
    go build -o "$work/atsimload" ./cmd/atsimload

    # start_node NAME ADDR CHAOS_POINT: (re)start one instance over its
    # own data dir. ADDR ":0" picks a port on first boot; restarts pass
    # the parsed address back in so the peer URL stays stable across
    # kills. Sets $addr/$url/$pid.
    start_node() {
        name=$1; naddr=$2; point=$3
        chaos_flag=""
        [ -n "$point" ] && chaos_flag="-chaos-migrate-kill=$point"
        "$work/atsimd" -addr "$naddr" -data "$work/data-$name" \
            -peer-allow '*' -max-live 32 -drain-timeout 30s \
            -migrate-timeout 5s $chaos_flag \
            > "$work/$name.log" 2>&1 &
        pid=$!
        addr=""
        i=0
        while [ $i -lt 100 ]; do
            addr=$(sed -n 's/^atsimd: listening on //p' "$work/$name.log" | head -1)
            [ -n "$addr" ] && break
            kill -0 "$pid" 2>/dev/null || {
                echo "soak migrate: atsimd ($name) died on startup:" >&2
                cat "$work/$name.log" >&2; exit 1; }
            i=$((i+1)); sleep 0.1
        done
        [ -n "$addr" ] || { echo "soak migrate: no listen line ($name)" >&2; exit 1; }
        url="http://$addr"
        "$work/atsimload" -server "$url" -timeout 30s wait
    }
    start_a() { start_node a "${a_addr:-127.0.0.1:0}" "${1:-}"; a_pid=$pid; a_addr=$addr; a_url=$url; }
    start_b() { start_node b "${b_addr:-127.0.0.1:0}" "${1:-}"; b_pid=$pid; b_addr=$addr; b_url=$url; }

    # verify_round STATEFILE: drive the state file's sessions onto B and
    # assert the full handoff contract (fence 410+Location, one-hop
    # redirect, gap-free obs). Retries while boot-time intent resolution
    # is still settling (the server answers 409 meanwhile).
    verify_round() {
        i=0
        until "$work/atsimload" -server "$a_url" -timeout 20s \
            -state "$1" -target "$b_url" migrate; do
            i=$((i+1))
            [ $i -ge 30 ] && { echo "soak migrate: $1 never resolved" >&2; return 1; }
            sleep 1
        done
    }

    # finish_round STATEFILE TAG: run the sessions (now on B) to
    # completion and cmp against uninterrupted control twins.
    finish_round() {
        "$work/atsimload" -server "$b_url" -state "$1" -out "$work/$2-finish.txt" finish
        "$work/atsimload" -server "$b_url" -state "$1" -out "$work/$2-control.txt" control
        cmp "$work/$2-finish.txt" "$work/$2-control.txt" || {
            echo "soak migrate: fingerprints diverged ($2)" >&2; exit 1; }
    }

    echo "== soak migrate: start the pair =="
    start_a
    start_b

    round=0
    for spec in \
        a:source.prepared a:source.intent a:source.push \
        a:source.acked a:source.committed \
        b:target.received b:target.snapshot b:target.manifest; do
        side=${spec%%:*}; point=${spec#*:}
        round=$((round+1))
        echo "== soak migrate: round $round: SIGKILL $side at $point =="
        st="$work/round-$round.json"
        "$work/atsimload" -server "$a_url" -n 1 -seed-base $((9000+round)) -state "$st" create
        "$work/atsimload" -server "$a_url" -quanta 2 -state "$st" step
        # Re-arm the doomed side with the chaos trigger.
        if [ "$side" = a ]; then
            kill -TERM "$a_pid"; wait "$a_pid" 2>/dev/null || true
            start_a "$point"
        else
            kill -TERM "$b_pid"; wait "$b_pid" 2>/dev/null || true
            start_b "$point"
        fi
        # The migration must NOT succeed cleanly — the chaos gate kills
        # one side mid-protocol.
        "$work/atsimload" -server "$a_url" -timeout 10s \
            -state "$st" -target "$b_url" migrate > /dev/null 2>&1 && {
            echo "soak migrate: round $round survived a $point kill?" >&2; exit 1; }
        # The killed side is gone (SIGKILL by its own chaos hook);
        # restart it clean and let intent recovery settle the handoff.
        if [ "$side" = a ]; then
            wait "$a_pid" 2>/dev/null || true
            start_a
        else
            wait "$b_pid" 2>/dev/null || true
            start_b
        fi
        verify_round "$st"
        finish_round "$st" "round-$round"
    done

    for victim in a b; do
        round=$((round+1))
        echo "== soak migrate: round $round: random mid-transfer SIGKILL of $victim =="
        st="$work/round-$round.json"
        "$work/atsimload" -server "$a_url" -n 4 -c 4 -seed-base $((9000+round*10)) -state "$st" create
        "$work/atsimload" -server "$a_url" -quanta 2 -c 4 -state "$st" step
        "$work/atsimload" -server "$a_url" -timeout 20s -c 4 \
            -state "$st" -target "$b_url" migrate > /dev/null 2>&1 &
        mig_pid=$!
        sleep "0.$((round % 7))"
        if [ "$victim" = a ]; then
            kill -9 "$a_pid"; wait "$a_pid" 2>/dev/null || true
            wait "$mig_pid" 2>/dev/null || true
            start_a
        else
            kill -9 "$b_pid"; wait "$b_pid" 2>/dev/null || true
            wait "$mig_pid" 2>/dev/null || true
            start_b
        fi
        verify_round "$st"
        finish_round "$st" "round-$round"
    done

    echo "== soak migrate: $n sessions under live step traffic =="
    "$work/atsimload" -server "$a_url" -n "$n" -c 8 -state "$work/bulk.json" create
    "$work/atsimload" -server "$a_url" -quanta 2 -c 8 -state "$work/bulk.json" step
    "$work/atsimload" -server "$a_url" -c 8 -quanta 1 -timeout 60s \
        -state "$work/bulk.json" -best-effort step > /dev/null 2>&1 &
    traffic_pid=$!
    verify_round "$work/bulk.json"
    wait "$traffic_pid" 2>/dev/null || true
    finish_round "$work/bulk.json" bulk

    echo "== soak migrate: metrics =="
    "$work/atsimload" -server "$a_url" -expect \
        "atsimd_migrations_started_total,atsimd_migrations_committed_total,atsimd_migration_seconds" \
        metrics
    "$work/atsimload" -server "$b_url" -expect \
        "atsimd_migrations_in_total,atsimd_migrations_fenced_total" \
        metrics

    echo "== soak migrate: both drain cleanly =="
    kill -TERM "$a_pid" "$b_pid"
    wait "$a_pid" || { echo "soak migrate: source drain exited nonzero" >&2; exit 1; }
    wait "$b_pid" || { echo "soak migrate: target drain exited nonzero" >&2; exit 1; }

    echo "soak migrate: all gates passed (kill-anywhere handoffs stayed exactly-once and byte-identical)"
    exit 0
fi

bin=$(mktemp)
trap 'rm -f "$bin"' EXIT
go build -o "$bin" ./cmd/soak

if [ $# -gt 0 ]; then
    exec "$bin" "$@"
fi

echo "== soak: tasks/LFF, 4 CPUs, clean counters =="
"$bin" -app tasks -policy LFF -cpus 4 -scale 0.3 -kills 5 -every 10000

echo "== soak: merge/LFF, 4 CPUs, all counter faults =="
"$bin" -app merge -policy LFF -cpus 4 -scale 0.2 -faults all -kills 3 -every 8000

echo "soak: all differentials byte-identical"
