#!/bin/sh
# Interleaved A/B benchmark gate.
#
# Usage: scripts/benchgate.sh [BASE-REV]
#
# Builds the test binaries (go test -c) of BASE-REV (default HEAD, so
# an uncommitted change is gated against the commit it sits on) and of
# the working tree, then runs the bench.sh benchmark set for ten
# rounds (about 20 minutes on a 2-vCPU host), alternating the two
# binaries and swapping which goes first each round, so drift on a
# shared host lands on both sides alike.
# Per benchmark (ns/op, and B/op and allocs/op under name/bytes and
# name/allocs) it prints both medians, the delta, how many rounds each
# side was faster, and the base's interquartile range as a share of its
# median. It exits 1 if any median regressed by more than 2% — the
# telemetry layer's disabled-path budget, which BenchmarkObsOff
# measures. A base median of 0 has no percentage: there the gate fails
# only if the new median exceeds the largest value the base recorded in
# any round (an amortized B/op of a zero-alloc benchmark reads 0 in
# most rounds and a few bytes in others). Benchmarks present on one
# side only are listed but never fail the gate.
set -e
cd "$(dirname "$0")/.."

base=${1:-HEAD}
rounds=10
threshold=2
pkgs=". internal/machine internal/snapshot"

# benchRegex names the benchmarks of package $1, the bench.sh set.
benchRegex() {
	case $1 in
	.) echo 'BenchmarkTable|BenchmarkFig|BenchmarkAblation|BenchmarkObs|BenchmarkCheckpoint|BenchmarkContextSwitch' ;;
	internal/machine) echo 'BenchmarkApplySweep|BenchmarkTouchCode|BenchmarkMachineNew' ;;
	internal/snapshot) echo 'BenchmarkCodec' ;;
	esac
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

# tree and bin name side $1's source tree and its test binary for
# package $2.
tree() { if [ "$1" = base ]; then echo "$tmp/base"; else pwd; fi; }
bin() { echo "$tmp/$1.$(echo "$2" | tr ./ __).test"; }

for side in base new; do
	for p in $pkgs; do
		# -trimpath: the two trees sit at different paths, which would
		# otherwise make even identical sources build different binaries.
		(cd "$(tree $side)/$p" && go test -c -trimpath -o "$(bin $side "$p")" .)
	done
done

# run appends "side round key value" samples from one pass of side $1
# over package $2 in round $3. The binary runs in its package
# directory, as go test would run it.
run() {
	(cd "$(tree "$1")/$2" && "$(bin "$1" "$2")" -test.run '^$' -test.bench "$(benchRegex "$2")" \
		-test.benchmem -test.count 1) > "$tmp/out"
	awk -v side="$1" -v round="$3" '/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		for (i = 3; i < NF; i++) {
			if ($(i+1) == "ns/op") print side, round, name, $i
			else if ($(i+1) == "B/op") print side, round, name "/bytes", $i
			else if ($(i+1) == "allocs/op") print side, round, name "/allocs", $i
		}
	}' "$tmp/out" >> "$tmp/samples"
}

r=1
while [ $r -le $rounds ]; do
	echo "round $r of $rounds" >&2
	for p in $pkgs; do
		if [ $((r % 2)) = 1 ]; then
			run base "$p" $r
			run new "$p" $r
		else
			run new "$p" $r
			run base "$p" $r
		fi
	done
	r=$((r + 1))
done

awk -v threshold="$threshold" '
# sorted copies src[1..n] into dst in ascending order and returns n.
function sorted(src, n, dst,    a, b, x) {
	for (a = 1; a <= n; a++) dst[a] = src[a] + 0
	for (a = 2; a <= n; a++) {
		x = dst[a]
		for (b = a - 1; b >= 1 && dst[b] > x; b--) dst[b+1] = dst[b]
		dst[b+1] = x
	}
	return n
}
# num renders a median: whole numbers, or two decimals below 100.
function num(x) { return x >= 100 || x == int(x) ? sprintf("%d", x + 0.5) : sprintf("%.2f", x) }
# quantile returns the q-quantile of sorted s[1..n], interpolating.
function quantile(s, n, q,    pos, lo) {
	pos = 1 + (n - 1) * q
	lo = int(pos)
	return lo >= n ? s[n] : s[lo] + (pos - lo) * (s[lo+1] - s[lo])
}
{
	side = $1; round = $2; key = $3
	if (!(key in seen)) { seen[key] = 1; keys[++nk] = key }
	val[side, key, round] = $4
	if (side == "base") bv[key, ++nb[key]] = $4
	else nv[key, ++nn[key]] = $4
	if (round > maxr) maxr = round
}
END {
	fails = 0
	printf "%-40s %14s %14s %8s %9s %9s\n", "benchmark", "base", "new", "delta", "wins n/b", "base IQR"
	for (k = 1; k <= nk; k++) {
		key = keys[k]
		if (!nb[key] || !nn[key]) {
			printf "%-40s %14s %14s %8s\n", key, (nb[key] ? "" : "-"), (nn[key] ? "" : "-"), "one side"
			continue
		}
		split("", b); split("", n); split("", sb); split("", sn)
		for (i = 1; i <= nb[key]; i++) b[i] = bv[key, i]
		for (i = 1; i <= nn[key]; i++) n[i] = nv[key, i]
		sorted(b, nb[key], sb)
		sorted(n, nn[key], sn)
		bmed = quantile(sb, nb[key], 0.5)
		nmed = quantile(sn, nn[key], 0.5)
		iqr = quantile(sb, nb[key], 0.75) - quantile(sb, nb[key], 0.25)
		nw = bw = 0
		for (r = 1; r <= maxr; r++) {
			if (!(("base", key, r) in val) || !(("new", key, r) in val)) continue
			if (val["new", key, r] + 0 < val["base", key, r] + 0) nw++
			else if (val["new", key, r] + 0 > val["base", key, r] + 0) bw++
		}
		mark = ""
		if (bmed == 0) {
			delta = (nmed == 0 ? "+0.0%" : "+inf")
			iqrs = "-"
			if (nmed > sb[nb[key]]) { mark = "  REGRESSED"; fails++ }
		} else {
			pct = 100 * (nmed - bmed) / bmed
			delta = sprintf("%+7.1f%%", pct)
			iqrs = sprintf("%.1f%%", 100 * iqr / bmed)
			if (pct > threshold) { mark = "  REGRESSED"; fails++ }
		}
		printf "%-40s %14s %14s %8s %4d/%-4d %9s%s\n", key, num(bmed), num(nmed), delta, nw, bw, iqrs, mark
	}
	if (fails) {
		printf "%d benchmark median(s) regressed more than %s%%\n", fails, threshold
		exit 1
	}
}' "$tmp/samples"
