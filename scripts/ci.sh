#!/bin/sh
# Static checks, the race-detector pass over the whole module, and a
# fuzz smoke of the untrusted-input surfaces. -short trims the
# experiments package to its fast tests (the full golden suite under
# the race detector, ~10x, would exceed go test's timeout while adding
# no concurrency coverage); everything else runs complete. The fuzz
# targets get a few seconds each on top of their checked-in corpora:
# enough to catch a decoder or sanitizer regression, bounded enough
# for CI. Run before committing; regen.sh runs it as its first step.
set -e
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -race -short -timeout 30m ./...
go test -fuzz FuzzLoadRecording -fuzztime 10s -run '^$' ./internal/trace
go test -fuzz FuzzSanitizeStream -fuzztime 10s -run '^$' ./internal/rt
go test -fuzz FuzzChromeTrace -fuzztime 10s -run '^$' ./internal/obs
go test -fuzz FuzzLoadSnapshot -fuzztime 10s -run '^$' ./internal/snapshot

# Telemetry gates: exported traces must be byte-identical regardless of
# worker count, and full tracing must not move a single golden counter.
# Both already ran under -race above; re-running them plainly makes the
# gate explicit and keeps it alive if the suites above are trimmed.
go test -run 'TestExportsDeterministicAcrossWorkers' ./internal/experiments
go test -run 'TestGoldenUnchangedByObservation' .

# Live-stream determinism gates: the server's /obs stream must be
# byte-identical to the standalone engine's post-hoc export at any
# worker count, a follower must accumulate exactly the batch bytes,
# and evict/resume cycles must not perturb the sequence.
go test -run 'TestObsStreamMatchesEngineExport|TestObsFollowEqualsBatch|TestObsStreamSurvivesEviction' ./internal/server
go test -run 'TestStreamFollowEqualsBatch' ./internal/obs

# Stream-accounting gates: the one bounded log behind /events, /obs and
# the span ring numbers, trims and reports loss by one rule (dropped +
# retained == newest seq, leading and interior gaps alike), a followed
# /events stream ends with the session's deleted record, and an
# overflowed span ring keeps exactly the newest spans.
go test -run 'TestSeqLog|TestObsStreamGapAccounting|TestEventsFollowEndsAtDelete|TestServerTraceSpanOverflow' ./internal/server

# Cache-topology gates. The degenerate-equivalence differential (a
# shared hierarchy at one CPU must match the private direct-mapped
# machine access for access) and the shared-LLC report smoke: the
# co-runner-aware model tracking the simulator and the shared-aware
# policies beating FCFS under the shared cache. All ran under -race
# above; kept explicit for the same reason as the telemetry gates.
go test -run 'TestSharedDegenerates' ./internal/machine
go test -run 'TestSharedLLCAccuracy|TestSharedPoliciesBeatFCFS' ./internal/experiments

# Snapshot format gates: the receipt bytes and section digests stay
# pinned, Diff names the divergent field or section and misses no
# receipt field, a hostile or corrupt container fails with a bounded
# allocation, resume verification names a flipped section digest, and
# the migration envelope carries a receipt under 1 KiB whose config
# record is checked key by key.
go test -run 'TestPayloadLayoutPinned|TestDiffNamesFirstDivergence|TestEveryFieldCounts|TestLoadRejectsCorruption' ./internal/snapshot
go test -run 'TestResumeDetectsDivergence' ./internal/rt
go test -run 'TestMigrateEnvelopeCarriesReceipt|TestVerifySnapshotMatchesConfigRecord' ./internal/server

# Crash-safety gates. First the in-process differential (resume from
# any checkpoint reproduces the uninterrupted run bit for bit, with
# telemetry and under counter faults), then a real kill-resume pass:
# a checkpointing atsim run, a fresh -resume of its snapshot, and the
# two stdouts must match byte for byte.
go test -run 'TestKillResume|TestCheckpointCaptureIsPure' ./internal/rt
ckptdir=$(mktemp -d)
trap 'rm -rf "$ckptdir"' EXIT
go build -o "$ckptdir/atsim" ./cmd/atsim
"$ckptdir/atsim" -app tasks -cpus 2 -scale 0.2 -checkpoint-every 10000 \
    -checkpoint "$ckptdir/run.snap" > "$ckptdir/straight.txt"
"$ckptdir/atsim" -app tasks -cpus 2 -scale 0.2 -checkpoint-every 10000 \
    -checkpoint "$ckptdir/run.snap" -resume > "$ckptdir/resumed.txt"
cmp "$ckptdir/straight.txt" "$ckptdir/resumed.txt" || {
    echo "kill-resume differential: resumed run output diverged" >&2; exit 1; }

# Chaos soak smoke: one subprocess SIGKILL/resume cycle converging to
# the straight-run fingerprint (scripts/soak.sh runs the full matrix).
scripts/soak.sh -app tasks -policy LFF -cpus 2 -scale 0.2 -kills 2 -every 10000

# Service crash-safety gate: atsimd hosting 500 sessions, SIGKILLed
# under live step traffic, restarted over the same data directory; a
# chaos session must fail in isolation, every admitted session must
# resume and fingerprint byte-identically to an uninterrupted control
# twin, and a load smoke must meet its SLO before a clean SIGTERM
# drain. See docs/SERVICE.md.
scripts/soak.sh server 500

# Migration chaos gate: two atsimd instances, a SIGKILL of source or
# target at every handoff phase boundary plus random mid-transfer
# kills, then a bulk migration under live step traffic. Every session
# must finish exactly once, byte-identical to its control twin, with
# 410+Location fencing and a gap-free /obs stream across the handoff.
# See the Migration section of docs/SERVICE.md.
scripts/soak.sh migrate 30

# Overhead gate (opt-in: BENCH_GATE=1): re-run the benchmark sweep and
# hard-fail if anything — most importantly BenchmarkObsOff, the
# telemetry disabled path — regressed more than 2% against the newest
# committed baseline. The sweep includes the scaling probe
# BenchmarkFig9_64CPU, so hot-path regressions that only show at high
# CPU counts fail the gate too; benchdiff never fails on benchmarks
# present in only one file, so adding probes does not break old
# baselines. Opt-in because the sweep takes minutes and the committed
# numbers are host-specific; run it on the baseline host before
# cutting a release.
if [ "${BENCH_GATE:-}" = 1 ]; then
    baseline=$(git ls-files 'BENCH_*.json' | sort | tail -1)
    [ -n "$baseline" ] || { echo "BENCH_GATE=1 but no committed BENCH_*.json" >&2; exit 1; }
    git show "HEAD:$baseline" > /tmp/bench_baseline.$$.json
    scripts/bench.sh
    scripts/benchdiff.sh /tmp/bench_baseline.$$.json "BENCH_$(date +%F).json" 2
    rm -f /tmp/bench_baseline.$$.json
fi
