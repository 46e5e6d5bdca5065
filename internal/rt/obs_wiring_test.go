package rt

// Tests for the engine ↔ observability wiring: the numeric schema
// correspondences obs documents but cannot import, the invariant that
// an attached observer never perturbs the simulation, and the
// consistency of the consolidated Snapshot with the accounting it
// replaces.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/platform/sim"
)

// TestVerdictMirrorsReadingClass pins the numeric correspondence the
// obs package documents: KInterval's Arg is a ReadingClass value, and
// obs cannot import rt to say so in types.
func TestVerdictMirrorsReadingClass(t *testing.T) {
	if uint8(ReadingOK) != obs.VerdictOK ||
		uint8(ReadingSuspect) != obs.VerdictSuspect ||
		uint8(ReadingRejected) != obs.VerdictRejected {
		t.Fatalf("ReadingClass values (%d,%d,%d) no longer mirror obs verdicts (%d,%d,%d)",
			ReadingOK, ReadingSuspect, ReadingRejected,
			obs.VerdictOK, obs.VerdictSuspect, obs.VerdictRejected)
	}
	for _, c := range []ReadingClass{ReadingOK, ReadingSuspect, ReadingRejected} {
		if c.String() != obs.VerdictString(uint8(c)) {
			t.Errorf("class %d: rt name %q != obs name %q", c, c.String(), obs.VerdictString(uint8(c)))
		}
	}
}

// obsWorkload runs a small multi-CPU program exercising every emission
// site: spawn, dispatch, block (yield/sleep/lock/sem/barrier/join),
// wake, model updates with dependents, and exit.
func obsWorkload(t *testing.T, o *obs.Observer) *Engine {
	t.Helper()
	e, err := New(sim.New(machine.New(machine.Enterprise5000(2))),
		Options{Policy: "LFF", Seed: 42, Obs: o})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mu := NewMutex("m")
	bar := NewBarrier("b", 2)
	sem := NewSemaphore("s", 0)
	worker := func(th *T) {
		r := th.Alloc(8192)
		for i := 0; i < 3; i++ {
			th.ReadRange(r.Base, 8192)
			th.Lock(mu)
			th.Compute(200)
			th.Unlock(mu)
			th.Yield()
		}
		th.BarrierWait(bar)
		th.SemPost(sem)
	}
	e.Spawn(func(th *T) {
		// Hold the mutex across a sleep so the workers' first Lock is
		// guaranteed to block (ReasonLock must appear in the trace).
		th.Lock(mu)
		a := th.Create("w0", worker)
		b := th.Create("w1", worker)
		th.ShareWith(a, 0.5)
		th.Share(a, b, 0.25)
		th.Sleep(2000)
		th.Unlock(mu)
		// A sleeper that outlives everything else, so Join blocks.
		lazy := th.Create("lazy", func(th *T) { th.Sleep(50000) })
		th.SemWait(sem)
		th.SemWait(sem)
		th.Join(lazy)
	}, SpawnOpts{Name: "main"})
	return e
}

func TestObserverDoesNotPerturbRun(t *testing.T) {
	bare := obsWorkload(t, nil)
	mustRun(t, bare)
	traced := obsWorkload(t, obs.New(2, obs.Options{Level: obs.Trace}))
	mustRun(t, traced)

	a, b := bare.Snapshot(), traced.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("observer perturbed the run:\nbare:   %+v\ntraced: %+v", a, b)
	}
	for p := 0; p < 2; p++ {
		ca, cb := machineOf(bare).CPU(p), machineOf(traced).CPU(p)
		if ca.Cycles != cb.Cycles || ca.EMisses != cb.EMisses {
			t.Errorf("cpu %d diverged: cycles %d/%d misses %d/%d",
				p, ca.Cycles, cb.Cycles, ca.EMisses, cb.EMisses)
		}
	}
}

func TestObsWiringEndToEnd(t *testing.T) {
	o := obs.New(2, obs.Options{Level: obs.Trace})
	e := obsWorkload(t, o)
	mustRun(t, e)

	// Every kind the workload can produce must have been recorded.
	seen := map[obs.Kind]int{}
	reasons := map[obs.BlockReason]int{}
	for cpu := 0; cpu < 2; cpu++ {
		for _, ev := range o.Ring(cpu).Events() {
			seen[ev.Kind]++
			if int(ev.CPU) != cpu {
				t.Fatalf("event on ring %d claims CPU %d", cpu, ev.CPU)
			}
			if ev.Kind == obs.KBlock {
				reasons[obs.BlockReason(ev.Arg)]++
			}
		}
	}
	for _, k := range []obs.Kind{obs.KDispatch, obs.KBlock, obs.KWake, obs.KSpawn,
		obs.KExit, obs.KInterval, obs.KModelUpdate, obs.KSchedDecision} {
		if seen[k] == 0 {
			t.Errorf("no %v events recorded (saw %v)", k, seen)
		}
	}
	for _, r := range []obs.BlockReason{obs.ReasonYield, obs.ReasonSleep, obs.ReasonJoin,
		obs.ReasonLock, obs.ReasonSem, obs.ReasonBarrier, obs.ReasonExit} {
		if reasons[r] == 0 {
			t.Errorf("no blocks with reason %v (saw %v)", r, reasons)
		}
	}
	if o.ThreadName(0) != "main" {
		t.Errorf("thread 0 named %q, want main", o.ThreadName(0))
	}

	// Metrics agree with the engine's own accounting.
	snap := o.Registry().Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	es := e.Snapshot()
	if counters["rt_dispatches_total"] != es.TotalDispatches() {
		t.Errorf("rt_dispatches_total %d != engine dispatches %d",
			counters["rt_dispatches_total"], es.TotalDispatches())
	}
	var idle, ok uint64
	for _, v := range es.IdleCycles {
		idle += v
	}
	for _, h := range es.Health {
		ok += h.OK
	}
	if counters["rt_idle_cycles_total"] != idle {
		t.Errorf("rt_idle_cycles_total %d != engine idle %d", counters["rt_idle_cycles_total"], idle)
	}
	if counters["rt_intervals_ok_total"] != ok {
		t.Errorf("rt_intervals_ok_total %d != health OK %d", counters["rt_intervals_ok_total"], ok)
	}
	if counters["rt_quarantines_total"] != 0 || counters["rt_intervals_rejected_total"] != 0 {
		t.Errorf("healthy substrate reported faults: %v", counters)
	}

	// Interval events carry OK verdicts and sanitized == raw on the
	// healthy substrate (bit transparency, seen from the trace side).
	for cpu := 0; cpu < 2; cpu++ {
		for _, ev := range o.Ring(cpu).Events() {
			if ev.Kind == obs.KInterval && (ev.Arg != obs.VerdictOK || ev.A != ev.B) {
				t.Fatalf("healthy interval event %+v not bit-transparent", ev)
			}
		}
	}

	// The whole run exports as valid Chrome trace JSON.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, []*obs.Cell{{Key: "wiring", Obs: o}}); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("exported trace is not valid JSON")
	}
}

// TestSnapshotMatchesAccessors: Snapshot agrees with the engine state
// it copies, and is a copy — mutating it leaves the engine untouched.
func TestSnapshotMatchesAccessors(t *testing.T) {
	e := obsWorkload(t, nil)
	mustRun(t, e)
	s := e.Snapshot()
	if s.Policy != "LFF" || s.NCPU != 2 || s.Steps == 0 {
		t.Errorf("snapshot header: %+v", s)
	}
	if !reflect.DeepEqual(s.Dispatches, e.dispatches) ||
		!reflect.DeepEqual(s.IdleCycles, e.idleCycles) ||
		!reflect.DeepEqual(s.Health, e.health.snapshot()) ||
		len(s.Threads) != len(e.threads) {
		t.Error("snapshot disagrees with the engine state it copies")
	}
	if s.SchedOps != e.Scheduler().Ops() || s.Escapes != e.Scheduler().Escapes() {
		t.Error("snapshot scheduler stats disagree")
	}
	if s.TotalDispatches() != e.totalDispatches() {
		t.Error("TotalDispatches disagrees")
	}
	s.Dispatches[0]++
	s.Threads[0].Cycles++
	if again := e.Snapshot(); reflect.DeepEqual(again.Dispatches, s.Dispatches) || reflect.DeepEqual(again.Threads, s.Threads) {
		t.Error("mutating a snapshot reached the engine")
	}
}
