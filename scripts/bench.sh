#!/bin/sh
# Run the table/figure benchmarks and the per-layer benchmarks, and
# record ns/op, B/op and allocs/op as JSON.
#
# Usage: scripts/bench.sh [-cpuprofile FILE] [-memprofile FILE]
#                         [-ncpu "8 64 ..."] [extra go-test args...]
#
# Writes BENCH_<yyyy-mm-dd>.json at the repo root: a flat object mapping
# benchmark name (trailing -N GOMAXPROCS suffix stripped) to ns/op, with
# "name/bytes" (B/op) and "name/allocs" (allocs/op) keys next to it.
# Runs each benchmark -count=3 with -benchmem and keeps the median of
# each figure so a single noisy run on a shared host cannot skew the
# committed numbers.
#
# Besides the root package's table, figure, observability, checkpoint
# and context-switch benchmarks, the sweep covers the layer benchmarks
# of other packages: internal/machine's BenchmarkApplySweep* (the cache
# sweep), BenchmarkTouchCode* (dispatch code fetch) and
# BenchmarkMachineNew (per-CPU cache state: its B/op is the simulator's
# memory per simulated line), and internal/snapshot's BenchmarkCodec
# (checkpoint sealing and the receipt codec). Extra go-test args apply to every package.
#
# -cpuprofile/-memprofile pass straight through to go test for the root
# package (go test profiles one package per run); inspect the result
# with
#
#	go tool pprof -top FILE            # hot functions
#	go tool pprof -list SweepDM FILE   # line-level cost of one function
#
# (docs/PERFORMANCE.md walks through the full profiling workflow.)
#
# -ncpu runs the Figure 9 grid once per listed CPU count via
# BenchmarkFig9CPUSweep, recording BenchmarkFig9CPUSweep/<n>cpu entries
# in the JSON — the scaling curve behind docs/PERFORMANCE.md.
set -e
cd "$(dirname "$0")/.."

cpuprofile=
memprofile=
ncpu=
while [ $# -gt 0 ]; do
	case $1 in
	-cpuprofile) cpuprofile=$2; shift 2 ;;
	-memprofile) memprofile=$2; shift 2 ;;
	-ncpu) ncpu=$2; shift 2 ;;
	*) break ;;
	esac
done

out="BENCH_$(date +%F).json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkApplySweep|BenchmarkTouchCode|BenchmarkMachineNew|BenchmarkCodec' \
	-benchmem -count=3 "$@" ./internal/machine ./internal/snapshot | tee "$raw"

[ -n "$memprofile" ] && set -- -memprofile "$memprofile" "$@"
[ -n "$cpuprofile" ] && set -- -cpuprofile "$cpuprofile" "$@"

BENCH_NCPU="$ncpu" go test -run '^$' \
	-bench 'BenchmarkTable|BenchmarkFig|BenchmarkAblation|BenchmarkObs|BenchmarkCheckpoint|BenchmarkContextSwitch' \
	-benchmem -count=3 "$@" . | tee -a "$raw"

awk '
# add records one sample v of key k.
function add(k, v) {
	if (!(k in idx)) { idx[k] = ++n; keys[n] = k }
	vals[k] = vals[k] " " v
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op") add(name, $i)
		else if ($(i+1) == "B/op") add(name "/bytes", $i)
		else if ($(i+1) == "allocs/op") add(name "/allocs", $i)
	}
}
END {
	printf "{\n"
	for (i = 1; i <= n; i++) {
		k = keys[i]
		cnt = split(vals[k], v, " ")
		# insertion-sort the handful of samples, take the median
		for (a = 2; a <= cnt; a++) {
			x = v[a]
			for (b = a - 1; b >= 1 && v[b] + 0 > x + 0; b--) v[b+1] = v[b]
			v[b+1] = x
		}
		med = v[int((cnt + 1) / 2)]
		printf "  \"%s\": %d%s\n", k, med, (i < n ? "," : "")
	}
	printf "}\n"
}' "$raw" > "$out"

echo "wrote $out"
