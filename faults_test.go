package threadlocality

// Fault-matrix tests: every fault class the faulty platform backend can
// inject — counter wrap, stuck counters, multiplexing dropouts, spike
// corruption, clock skew, and all of them at once — is driven through
// the full engine. The runtime's contract under lying instrumentation
// is graceful degradation, never collapse: runs complete, scheduler
// invariants and priority finiteness hold, persistent garbage
// quarantines the counter (degrading that CPU to the annotation-free
// baseline), and everything stays bit-for-bit deterministic, including
// across experiment-driver worker counts.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/platform/faulty"
	"repro/internal/platform/replay"
	"repro/internal/platform/sim"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// faultCase is one cell of the fault matrix.
type faultCase struct {
	name string
	cfg  faulty.Config
	// wantRejected: the schedule is aggressive enough that the
	// sanitizer must reject at least one reading somewhere.
	wantRejected bool
	// wantQuarantine: rejections are persistent enough that at least
	// one CPU must enter quarantine at some point.
	wantQuarantine bool
}

// faultMatrix holds schedules tuned so each class actually fires on the
// scenario below (per-CPU counters reach ~10^5 reads there, with a few
// thousand scheduling intervals per CPU).
var faultMatrix = []faultCase{
	{name: "wrap", cfg: faulty.Config{Seed: 3, WrapBits: 8},
		wantRejected: true, wantQuarantine: true},
	{name: "stuck", cfg: faulty.Config{Seed: 3, StuckEvery: 50000, StuckLen: 40000},
		wantRejected: true, wantQuarantine: true},
	{name: "dropout", cfg: faulty.Config{Seed: 3, DropEvery: 50000, DropLen: 40000},
		wantRejected: true, wantQuarantine: true},
	{name: "spike", cfg: faulty.Config{Seed: 3, SpikeEvery: 30000, SpikeDelta: 1 << 24},
		wantRejected: true},
	{name: "skew", cfg: faulty.Config{Seed: 3, SkewCycles: 1 << 20}},
	{name: "all", cfg: faulty.Config{Seed: 3, WrapBits: 20,
		StuckEvery: 50000, StuckLen: 9000, DropEvery: 70000, DropLen: 8000,
		SpikeEvery: 60000, SpikeDelta: 1 << 22, SkewCycles: 100000},
		wantRejected: true},
}

// runFaultScenario runs the tasks application on a 4-CPU machine with
// the given injection schedule and returns the run fingerprint
// (dispatch timeline + counters + health) and the post-run engine.
func runFaultScenario(cfg faulty.Config) (string, *rt.Engine, error) {
	app, err := workloads.SchedAppByName("tasks")
	if err != nil {
		return "", nil, err
	}
	m := machine.New(machine.Enterprise5000(4))
	plat, err := faulty.New(sim.New(m), cfg)
	if err != nil {
		return "", nil, err
	}
	e, err := rt.New(plat, rt.Options{Policy: "LFF", Seed: 42})
	if err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	e.OnDispatch = func(cpu int, tid ThreadID, name string) {
		fmt.Fprintf(&sb, "%d/%d/%v/%s\n", m.CPU(cpu).Cycles, cpu, tid, name)
	}
	app.Spawn(e, 0.25)
	if err := e.Run(context.Background()); err != nil {
		return "", nil, err
	}
	refs, _, misses := m.Totals()
	fmt.Fprintf(&sb, "refs=%d misses=%d cycles=%d\n", refs, misses, m.MaxCycles())
	for _, h := range e.Snapshot().Health {
		fmt.Fprintf(&sb, "%s streaks=%d/%d\n", h, h.StreakRejected, h.StreakClean)
	}
	return sb.String(), e, nil
}

func TestFaultMatrix(t *testing.T) {
	for _, fc := range faultMatrix {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			fp, e, err := runFaultScenario(fc.cfg)
			if err != nil {
				t.Fatalf("run failed under %s faults: %v", fc.cfg, err)
			}
			// Scheduler invariants: footprints in range, priorities
			// finite, quarantined heaps empty.
			if err := e.Scheduler().Check(); err != nil {
				t.Errorf("scheduler invariants violated: %v", err)
			}
			health := e.Snapshot().Health
			var rejected, quarantines uint64
			for i, h := range health {
				if h.Total() == 0 {
					t.Errorf("cpu%d classified no readings", i)
				}
				rejected += h.Rejected
				quarantines += h.Quarantines
				// The engine mirrors health state into the scheduler
				// after every reading; the two must agree at exit.
				if got := e.Scheduler().Quarantined(i); got != h.Quarantined {
					t.Errorf("cpu%d: scheduler quarantine %v != health %v", i, got, h.Quarantined)
				}
			}
			if fc.wantRejected && rejected == 0 {
				t.Errorf("expected rejected readings under %s faults, got none", fc.name)
			}
			if !fc.wantRejected && fc.name == "skew" && rejected != 0 {
				// Constant skew shifts both ends of every cycle window
				// equally; the sanitizer must not punish it.
				t.Errorf("skew alone caused %d rejections", rejected)
			}
			if fc.wantQuarantine && quarantines == 0 {
				t.Errorf("expected at least one quarantine under %s faults, got none", fc.name)
			}
			// Determinism: the same schedule replays bit-identically.
			fp2, _, err := runFaultScenario(fc.cfg)
			if err != nil {
				t.Fatalf("rerun failed: %v", err)
			}
			if fp != fp2 {
				t.Errorf("%s faults nondeterministic:\n--- first\n%s\n--- second\n%s", fc.name, fp, fp2)
			}
		})
	}
}

// TestFaultMatrixCorruptRecording is the matrix's recording-domain
// fault class: every corrupted recording in the checked-in corpus is
// pushed at the replay stack (the full scheduler/model engine with no
// simulator), which must refuse it with a descriptive error and never
// panic; the intact recording from the same corpus must replay.
func TestFaultMatrixCorruptRecording(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("internal", "trace", "testdata", "corrupt", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("corrupted-recordings corpus has only %d files", len(files))
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rec, lerr := trace.Load(f)
		f.Close()
		if lerr == nil {
			// Decoding survived; the replay constructor's Validate
			// pre-pass must still refuse the recording.
			if _, rerr := replay.Evaluate(rec); rerr == nil {
				t.Errorf("%s: corrupt recording replayed without error", filepath.Base(path))
			}
			continue
		}
		if !strings.Contains(lerr.Error(), "trace:") {
			t.Errorf("%s: undescriptive error %q", filepath.Base(path), lerr)
		}
	}

	f, err := os.Open(filepath.Join("internal", "trace", "testdata", "valid.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.Load(f)
	if err != nil {
		t.Fatalf("valid corpus recording rejected: %v", err)
	}
	res, err := replay.Evaluate(rec)
	if err != nil {
		t.Fatalf("valid corpus recording does not replay: %v", err)
	}
	if len(res.Intervals) == 0 {
		t.Error("replay of the valid recording predicted no intervals")
	}
}

// TestFaultMatrixDeterministicAcrossWorkers re-runs the whole matrix
// under the experiment driver's worker pool at -j 1 and -j 4 and
// requires identical fingerprints: fault injection must not introduce
// any cross-cell coupling.
func TestFaultMatrixDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix x workers is slow; run without -short")
	}
	collect := func(workers int) []string {
		fps := make([]string, len(faultMatrix))
		err := parallel.ForEach(workers, len(faultMatrix), func(i int) error {
			fp, _, err := runFaultScenario(faultMatrix[i].cfg)
			fps[i] = fp
			return err
		})
		if err != nil {
			t.Fatalf("matrix run with %d workers: %v", workers, err)
		}
		return fps
	}
	seq := collect(1)
	par := collect(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("%s: -j1 and -j4 fingerprints differ", faultMatrix[i].name)
		}
	}
}

// TestFaultyZeroConfigIsBitTransparent pins the differential contract:
// a run through the faulty wrapper with no faults configured is
// event-for-event identical to a run on the bare sim backend — same
// dispatch timeline, same counters, and an all-OK health record.
func TestFaultyZeroConfigIsBitTransparent(t *testing.T) {
	spawn := func(e *rt.Engine) {
		workloads.SpawnTasks(e, workloads.TasksConfig{Tasks: 12, FootprintLines: 40, Periods: 4})
	}
	bare := diffFingerprint(t, func(t *testing.T) (*rt.Engine, *machine.Machine) {
		m := machine.New(machine.Enterprise5000(4))
		e, err := rt.New(sim.New(m), rt.Options{Policy: "LFF", Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return e, m
	}, spawn)
	var wrappedEngine *rt.Engine
	wrapped := diffFingerprint(t, func(t *testing.T) (*rt.Engine, *machine.Machine) {
		m := machine.New(machine.Enterprise5000(4))
		plat, err := faulty.New(sim.New(m), faulty.Config{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := rt.New(plat, rt.Options{Policy: "LFF", Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		wrappedEngine = e
		return e, m
	}, spawn)
	if bare != wrapped {
		t.Errorf("zero-fault wrapper changed the run:\n--- bare\n%s\n--- wrapped\n%s", bare, wrapped)
	}
	for _, h := range wrappedEngine.Snapshot().Health {
		if h.Rejected != 0 || h.Quarantines != 0 || h.Quarantined {
			t.Errorf("healthy substrate produced rejections: %s", h)
		}
	}
}
