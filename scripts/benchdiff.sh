#!/bin/sh
# Compare two bench.sh JSON files and fail on regressions.
#
# Usage: scripts/benchdiff.sh OLD.json NEW.json [threshold-pct]
#
# Prints a per-key delta table over the keys both files contain (ns/op
# under the benchmark's name, B/op and allocs/op under name/bytes and
# name/allocs) and exits 1 if any of them regressed by more than the
# threshold (default 2%, the telemetry layer's disabled-path overhead
# budget). An old value of 0 that is no longer 0 counts as a
# regression of any size. Keys present in only one file are listed but
# never fail the gate, so adding or retiring benchmarks does not break
# it.
set -e

[ $# -ge 2 ] || { echo "usage: $0 OLD.json NEW.json [threshold-pct]" >&2; exit 2; }
old=$1
new=$2
threshold=${3:-2}

awk -v threshold="$threshold" -v oldname="$old" -v newname="$new" '
# Both inputs are the flat {"key": value, ...} objects bench.sh writes.
/^[[:space:]]*"/ {
	line = $0
	gsub(/[",:]/, " ", line)
	split(line, f, " ")
	if (FILENAME == oldname) oldv[f[1]] = f[2]
	else newv[f[1]] = f[2]
}
END {
	fails = 0
	printf "%-40s %14s %14s %8s\n", "benchmark", "old", "new", "delta"
	for (name in newv) {
		if (!(name in oldv)) { printf "%-40s %14s %14d %8s\n", name, "-", newv[name], "new"; continue }
		mark = ""
		if (oldv[name] == 0) {
			delta = (newv[name] == 0 ? "+0.0%" : "+inf")
			if (newv[name] > 0) { mark = "  REGRESSED"; fails++ }
		} else {
			pct = 100 * (newv[name] - oldv[name]) / oldv[name]
			delta = sprintf("%+7.1f%%", pct)
			if (pct > threshold) { mark = "  REGRESSED"; fails++ }
		}
		printf "%-40s %14d %14d %8s%s\n", name, oldv[name], newv[name], delta, mark
	}
	for (name in oldv)
		if (!(name in newv)) printf "%-40s %14d %14s %8s\n", name, oldv[name], "-", "gone"
	if (fails) {
		printf "%d benchmark(s) regressed more than %s%%\n", fails, threshold
		exit 1
	}
}' "$old" "$new"
