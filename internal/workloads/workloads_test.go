package workloads

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/platform/sim"
	"repro/internal/rt"
)

// machineOf digs the simulated machine out of a test engine.
func machineOf(e *rt.Engine) *machine.Machine { return e.Platform().(*sim.Platform).Machine() }

// runScaled executes one scheduling app at small scale and returns the
// engine for inspection.
func runScaled(t *testing.T, app SchedApp, cpus int, policy string, scale float64) *rt.Engine {
	t.Helper()
	var cfg machine.Config
	if cpus == 1 {
		cfg = machine.UltraSPARC1()
	} else {
		cfg = machine.Enterprise5000(cpus)
	}
	e, err := rt.New(sim.New(machine.New(cfg)), rt.Options{Policy: policy, Seed: 11})
	if err != nil {
		t.Fatalf("%s/%s: %v", app.Name, policy, err)
	}
	app.Spawn(e, scale)
	if err := e.Run(context.Background()); err != nil {
		t.Fatalf("%s/%s: %v", app.Name, policy, err)
	}
	return e
}

func TestAllSchedAppsCompleteUnderAllPolicies(t *testing.T) {
	for _, app := range SchedApps() {
		for _, policy := range []string{"FCFS", "LFF", "CRT"} {
			for _, cpus := range []int{1, 4} {
				e := runScaled(t, app, cpus, policy, 0.05)
				if _, _, misses := machineOf(e).Totals(); misses == 0 {
					t.Errorf("%s/%s/%dcpu: no misses at all?", app.Name, policy, cpus)
				}
			}
		}
	}
}

func TestSchedAppRegistry(t *testing.T) {
	apps := SchedApps()
	if len(apps) != 4 {
		t.Fatalf("app count = %d", len(apps))
	}
	names := []string{"tasks", "merge", "photo", "tsp"}
	for i, want := range names {
		if apps[i].Name != want {
			t.Errorf("app[%d] = %s, want %s", i, apps[i].Name, want)
		}
		if apps[i].Params == "" || apps[i].Threads == 0 {
			t.Errorf("%s: missing Table 4 metadata", want)
		}
		if _, err := SchedAppByName(want); err != nil {
			t.Errorf("lookup %s: %v", want, err)
		}
	}
	if _, err := SchedAppByName("nope"); err == nil {
		t.Error("bogus lookup succeeded")
	}
}

func TestTasksDisjointFootprints(t *testing.T) {
	// tasks must not create any dependency edges: its threads have
	// disjoint state and the paper notes annotations are irrelevant.
	app, _ := SchedAppByName("tasks")
	e := runScaled(t, app, 1, "LFF", 0.03)
	if e.Graph().Edges() != 0 {
		t.Errorf("tasks created %d annotation edges", e.Graph().Edges())
	}
}

func TestMergeBuildsParentChildAnnotations(t *testing.T) {
	cfg := machine.UltraSPARC1()
	e, err := rt.New(sim.New(machine.New(cfg)), rt.Options{Policy: "LFF", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	edgesSeen := 0
	SpawnMerge(e, MergeConfig{Elements: 3200, Leaf: 100})
	// Snapshot the graph mid-run is hard from outside; instead verify
	// post-conditions: all threads exited, graph empty, and the run
	// created the expected thread tree (2*leaves-1 threads).
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Graph().Edges() != 0 {
		t.Errorf("graph not cleaned up: %d edges", e.Graph().Edges())
	}
	_ = edgesSeen
	total := e.Snapshot().TotalDispatches()
	// 3200/100 = 32 leaves -> 63 threads -> >63 dispatches (joins
	// force re-dispatches of parents).
	if total < 63 {
		t.Errorf("dispatches = %d, want >= 63", total)
	}
}

func TestPhotoNeighbourSharingHelpsOnSMP(t *testing.T) {
	// The paper's headline photo result: on a multiprocessor the
	// locality policy eliminates a large share of E-misses.
	app, _ := SchedAppByName("photo")
	fcfs := runScaled(t, app, 4, "FCFS", 0.1)
	lff := runScaled(t, app, 4, "LFF", 0.1)
	_, _, mFCFS := machineOf(fcfs).Totals()
	_, _, mLFF := machineOf(lff).Totals()
	if mLFF >= mFCFS {
		t.Errorf("photo/4cpu: LFF misses %d >= FCFS %d", mLFF, mFCFS)
	}
}

func TestTSPParentPrefetchesForChildren(t *testing.T) {
	// With annotations under LFF, tsp children should find their
	// matrices warm: LFF must beat FCFS on misses on an SMP.
	app, _ := SchedAppByName("tsp")
	fcfs := runScaled(t, app, 4, "FCFS", 0.06)
	lff := runScaled(t, app, 4, "LFF", 0.06)
	_, _, mFCFS := machineOf(fcfs).Totals()
	_, _, mLFF := machineOf(lff).Totals()
	if mLFF >= mFCFS {
		t.Errorf("tsp/4cpu: LFF misses %d >= FCFS %d", mLFF, mFCFS)
	}
}

func TestStudyAppRegistry(t *testing.T) {
	apps := StudyApps()
	if len(apps) != 8 {
		t.Fatalf("study app count = %d", len(apps))
	}
	if len(Fig5Apps()) != 6 || len(Fig7Apps()) != 2 {
		t.Errorf("fig5/fig7 split = %d/%d", len(Fig5Apps()), len(Fig7Apps()))
	}
	for _, a := range apps {
		if a.StateBytes == 0 || a.Description == "" || a.Class == "" {
			t.Errorf("%s: incomplete metadata", a.Name)
		}
		if _, err := StudyAppByName(a.Name); err != nil {
			t.Errorf("lookup %s: %v", a.Name, err)
		}
	}
	for _, a := range Fig7Apps() {
		if a.Name != "typechecker" && a.Name != "raytrace" {
			t.Errorf("unexpected anomalous app %s", a.Name)
		}
	}
}

func TestStudyPatternsValid(t *testing.T) {
	// Every pattern must construct and emit within its regions.
	m := machine.New(machine.UltraSPARC1())
	for _, a := range StudyApps() {
		state := m.AllocPages(a.StateBytes)
		hot := state
		hot.Len = a.HotBytes
		pat := a.Pattern(state, hot)
		g := traceGen(t, pat)
		b, _ := g.Emit(nil, 10000)
		for _, acc := range b {
			if acc.Base < state.Base || acc.Base >= state.End() {
				t.Errorf("%s: access outside state: %+v", a.Name, acc)
			}
		}
	}
}
