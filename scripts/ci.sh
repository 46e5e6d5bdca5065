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

# gate PKG REGEX runs the named tests REGEX selects in PKG. It first
# fails unless every |-separated alternative matches at least one test
# that `go test -list` reports there, so a deleted or renamed test
# cannot turn its gate into a silent "[no tests to run]" pass. An
# alternative naming a subtest (Test/sub) is checked by its top-level
# part, the level `go test -list` can see.
gate() {
    listed=$(go test -list . "$1" | grep -E '^(Test|Example|Fuzz)' || true)
    set -f
    old_ifs=$IFS
    IFS='|'
    for alt in $2; do
        printf '%s\n' "$listed" | grep -Eq -- "${alt%%/*}" || {
            echo "gate $1: no test matches '$alt'" >&2; exit 1; }
    done
    IFS=$old_ifs
    set +f
    go test -run "$2" "$1"
}

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
gate ./internal/experiments 'TestExportsDeterministicAcrossWorkers'
gate . 'TestGoldenUnchangedByObservation'

# Live-stream determinism gates: the server's /obs stream must be
# byte-identical to the standalone engine's post-hoc export at any
# worker count, a follower must accumulate exactly the batch bytes,
# evict/resume cycles must not perturb the sequence, and a failed
# session's own config must replay its failure and its stream (what
# stands in for a flight recorder).
gate ./internal/server 'TestObsStreamMatchesEngineExport|TestObsFollowEqualsBatch|TestObsStreamSurvivesEviction|TestFailureReproducesFromConfig'
gate ./internal/obs 'TestStreamFollowEqualsBatch'

# Stream-accounting gates: the one bounded log behind /events, /obs and
# the span ring numbers, trims and reports loss by one rule (dropped +
# retained == newest seq, leading and interior gaps alike), a followed
# /events stream ends with the session's deleted record, and an
# overflowed span ring keeps exactly the newest spans.
gate ./internal/server 'TestSeqLog|TestObsStreamGapAccounting|TestEventsFollowEndsAtDelete|TestServerTraceSpanOverflow'

# Cache-topology gates. The degenerate-equivalence differential (a
# shared hierarchy at one CPU must match the private direct-mapped
# machine access for access) and the shared-LLC report smoke: the
# co-runner-aware model tracking the simulator and the shared-aware
# policies beating FCFS under the shared cache. All ran under -race
# above; kept explicit for the same reason as the telemetry gates.
gate ./internal/machine 'TestSharedDegenerates'
gate ./internal/experiments 'TestSharedLLCAccuracy|TestSharedPoliciesBeatFCFS'

# Fast-lane gates: the fused data sweep (dense lane, strided load
# streak, single references) and TouchCode's fetch lane must match the
# per-reference path counter for counter and line for line, on the
# private and shared-llc topologies, and their layer benchmarks must
# not allocate.
gate ./internal/machine 'TestFastApplyMatchesPerReference|TestFastApplySharedLLCMatchesPerReference|TestFastTouchCodeMatchesPerLine|TestLaneBenchmarksDoNotAllocate'

# Packed-slot gates: a simulated cache line is an 8-byte slot, and only
# caches that run LRU carry stamps; a physical line beyond the 32-bit
# slot key's reach panics at its fill instead of aliasing a resident
# line, in the cache and through the machine on both data paths.
gate ./internal/cachesim 'TestSlotLayout|TestLineKeyGuard'
gate ./internal/machine 'TestPhysicalLineKeyGuard'

# Timer-order gate: rt's typed timer heap keeps container/heap's exact
# array layout, which the checkpoint's timers section digest covers.
gate ./internal/rt 'TestTimerHeapMatchesContainerHeap'

# Snapshot format gates: the receipt bytes and section digests stay
# pinned, Diff names the divergent field or section and misses no
# receipt field, a hostile or corrupt container fails with a bounded
# allocation, resume verification names a flipped section digest, and
# the migration envelope carries a receipt under 1 KiB whose config
# record is checked key by key.
gate ./internal/snapshot 'TestPayloadLayoutPinned|TestDiffNamesFirstDivergence|TestEveryFieldCounts|TestLoadRejectsCorruption'
gate ./internal/rt 'TestResumeDetectsDivergence'
gate ./internal/server 'TestMigrateEnvelopeCarriesReceipt|TestVerifySnapshotMatchesConfigRecord'

# Baton gates: the run loop passes between thread goroutines — one
# goroutine switch per change of thread and none for a repeat step,
# engine panics re-raised on Run's caller, no goroutine left behind on
# any exit path — and Step returns only once its engine is re-parked
# (the admission race behind a spurious overload).
gate ./internal/rt 'TestBatonComputeOnlyOneHandoff|TestBatonYieldPingPong|TestBatonHandoffsBoundedBySteps|TestBatonCheckpointPanicReachesCaller|TestBatonThreadPanicStillAnError|TestBatonLeavesNoGoroutines'
gate ./internal/server 'TestAdmission/lru_eviction_and_busy_overload'

# Crash-safety gates: the in-process differential atsimd's eviction,
# restart and migration rest on (resume from any checkpoint reproduces
# the uninterrupted run bit for bit, with telemetry and under counter
# faults) and capture purity (checkpointing never perturbs a run).
gate ./internal/rt 'TestKillResume|TestCheckpointCaptureIsPure'

# Service crash-safety gates, in process and replayable from a seed:
# seeded crash schedules over the server's one fault seam (a crash at
# any migration phase point or durable store mutation, a dropped or
# duplicated migration response), each followed by a restart and the
# invariant checks of docs/SERVICE.md; the two boundary-drift
# regressions; a done session's leftover receipt and an older build's
# flight records swept at boot; a stray or mismatched manifest
# quarantined instead of restored; a Delete that cannot remove the
# manifest leaving the session in place; a session parked past its
# stall timeout, and a spinner caught although it crosses checkpoint
# boundaries; an instance whose crash hook fired staying inert; the
# phase-point kill matrix of a migration; and a restart after an
# abandoned (killed) server.
gate ./internal/server 'TestCrashSchedules|TestBoundariesAfterStaleManifest|TestBoundariesAfterLostReceipt|TestDoneReceiptSweptAtBoot|TestBootRemovesOldFlightFiles|TestStrayManifestQuarantined|TestDeleteReportsManifestRemovalFailure|TestParkedSessionOutlivesStallTimeout|TestCrashedInstanceIsInert'
gate ./internal/rt 'TestWatchdogCatchesStepSpinAcrossBoundaries|TestWatchdogStopsWhileParked'
gate ./internal/server 'TestMigrateKillSource|TestMigrateKillTarget|TestKillRestoreIdentity'

# Real-process smoke: the built atsimd under an atsimload SLO, a
# metrics scrape, one SIGKILL with a restart and restored-count check,
# and a clean SIGTERM drain. See docs/SERVICE.md.
scripts/soak.sh

# Overhead gate (opt-in: BENCH_GATE=1): an interleaved A/B of the
# committed HEAD against the working tree (scripts/benchgate.sh) over
# the bench.sh benchmark set, hard-failing if any median — most
# importantly BenchmarkObsOff, the telemetry disabled path — regressed
# more than 2%. The set includes the scaling probe BenchmarkFig9_64CPU,
# so hot-path regressions that only show at high CPU counts fail the
# gate too. Both sides run on the same host in alternating rounds;
# comparing against a file recorded at another time moved untouched
# benchmarks by more than the budget. Opt-in because the ten rounds
# take about 20 minutes; run it before committing a change.
if [ "${BENCH_GATE:-}" = 1 ]; then
    scripts/benchgate.sh
fi
