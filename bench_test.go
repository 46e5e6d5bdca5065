package threadlocality

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper, plus microbenchmarks of the hot substrate paths. Run
// everything with
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks run reduced-size configurations per
// iteration so the suite completes quickly; cmd/repro regenerates the
// full-scale numbers.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/inference"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/platform/sim"
	"repro/internal/rt"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchSched is the reduced scheduling configuration for per-iteration
// experiment benchmarks.
var benchSched = experiments.SchedConfig{Scale: 0.08, Seed: 11}

// benchStudy is the reduced footprint-study configuration.
var benchStudy = experiments.StudyConfig{MaxMisses: 4000, Seed: 7}

// --- Table benchmarks -------------------------------------------------

// BenchmarkTable1HierarchyProbe measures the cache hierarchy's
// per-reference cost (the substrate behind every experiment): a mixed
// hit/miss data stream through L1D/E-cache with translation.
func BenchmarkTable1HierarchyProbe(b *testing.B) {
	m := machine.New(machine.UltraSPARC1())
	r := m.Alloc(4<<20, 0)
	batch := mem.Batch{mem.ReadRange(r.Base, 1<<16)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := r.Base + mem.Addr(uint64(i*(1<<16))%(r.Len-(1<<16)))
		batch[0] = mem.ReadRange(base, 1<<16)
		m.Apply(0, 1, batch)
	}
	b.ReportMetric(float64(1<<13), "refs/op")
}

// BenchmarkTable3PriorityUpdate measures the per-update cost of the
// Section 4 priority algebra, the quantity Table 3 bounds: a handful of
// FP instructions per blocking/dependent update, zero for independent
// threads.
func BenchmarkTable3PriorityUpdateLFFBlocking(b *testing.B) {
	mdl := model.New(8192)
	var sink float64
	for i := 0; i < b.N; i++ {
		_, p := (model.LFF{}).Blocking(mdl, 100, 50, uint64(i))
		sink += p
	}
	_ = sink
}

func BenchmarkTable3PriorityUpdateLFFDependent(b *testing.B) {
	mdl := model.New(8192)
	var sink float64
	for i := 0; i < b.N; i++ {
		_, p := (model.LFF{}).Dependent(mdl, 100, 0, 0.5, 50, uint64(i))
		sink += p
	}
	_ = sink
}

func BenchmarkTable3PriorityUpdateCRTBlocking(b *testing.B) {
	mdl := model.New(8192)
	var sink float64
	for i := 0; i < b.N; i++ {
		_, p := (model.CRT{}).Blocking(mdl, 100, 50, uint64(i))
		sink += p
	}
	_ = sink
}

func BenchmarkTable3PriorityUpdateCRTDependent(b *testing.B) {
	mdl := model.New(8192)
	var sink float64
	for i := 0; i < b.N; i++ {
		_, p := (model.CRT{}).Dependent(mdl, 100, 120, 0.5, 50, uint64(i))
		sink += p
	}
	_ = sink
}

// BenchmarkTable5 regenerates the Table 5 summary (CRT vs FCFS on both
// platforms) at reduced scale.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(benchSched)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Render()
	}
}

// --- Figure benchmarks ------------------------------------------------

// BenchmarkFig4RandomWalk regenerates the Figure 4 microbenchmark.
func BenchmarkFig4RandomWalk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4(benchStudy)
		if res.MaxRelError() > 0.15 {
			b.Fatalf("model accuracy regressed: %v", res.MaxRelError())
		}
	}
}

// BenchmarkFig5Footprints regenerates one Figure 5 footprint study
// (barnes, the first application).
func BenchmarkFig5Footprints(b *testing.B) {
	app, err := workloads.StudyAppByName("barnes")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = experiments.StudyFootprint(app, benchStudy)
	}
}

// BenchmarkFig6MPI regenerates one Figure 6 MPI trajectory (ocean).
func BenchmarkFig6MPI(b *testing.B) {
	app, err := workloads.StudyAppByName("ocean")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchStudy
	cfg.MPIWindow = 100_000
	for i := 0; i < b.N; i++ {
		r := experiments.StudyFootprint(app, cfg)
		if r.MPI.Len() == 0 {
			b.Fatal("no MPI windows")
		}
	}
}

// BenchmarkFig7Anomalies regenerates the typechecker overestimation
// study.
func BenchmarkFig7Anomalies(b *testing.B) {
	app, err := workloads.StudyAppByName("typechecker")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := experiments.StudyFootprint(app, benchStudy)
		if r.Bias <= 0 {
			b.Fatalf("typechecker not overestimated: bias %v", r.Bias)
		}
	}
}

// BenchmarkFig8OneCPU regenerates the Figure 8 policy comparison on the
// uniprocessor at reduced scale.
func BenchmarkFig8OneCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(benchSched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9EightCPU regenerates the Figure 9 policy comparison on
// the 8-CPU SMP at reduced scale.
func BenchmarkFig9EightCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(benchSched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_64CPU runs the Figure 9 grid at 64 simulated CPUs —
// the contention-free-hot-paths scaling check. The interesting number
// is the per-CPU cost relative to BenchmarkFig9EightCPU: the directory,
// the scheduler arena and the engine's clock heap must keep the
// per-simulated-CPU overhead sub-linear as the machine grows.
func BenchmarkFig9_64CPU(b *testing.B) {
	cfg := benchSched
	cfg.CPUs = 64
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9SharedLLC runs the five-policy matrix (FCFS, LFF, CRT
// and the shared-aware variants) on the shared-LLC topology at reduced
// scale — the fused sweep with the shared L2's sharer upkeep plus the
// machine-wide miss clock, against BenchmarkFig9EightCPU's private
// machine.
func BenchmarkFig9SharedLLC(b *testing.B) {
	cfg := benchSched
	cfg.Topology = "shared-llc"
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SharedLLCSched(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9CPUSweep runs the Figure 9 grid at each CPU count in
// the space-separated BENCH_NCPU environment variable (for example
// BENCH_NCPU="8 64 256"); it skips when the variable is unset.
// scripts/bench.sh -ncpu drives it.
func BenchmarkFig9CPUSweep(b *testing.B) {
	env := os.Getenv("BENCH_NCPU")
	if env == "" {
		b.Skip(`BENCH_NCPU not set; use scripts/bench.sh -ncpu "8 64"`)
	}
	for _, f := range strings.Fields(env) {
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			b.Fatalf("bad BENCH_NCPU entry %q", f)
		}
		cfg := benchSched
		cfg.CPUs = n
		b.Run(fmt.Sprintf("%dcpu", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig9(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAnnotations regenerates the photo annotation
// ablation at reduced scale.
func BenchmarkAblationAnnotations(b *testing.B) {
	cfg := benchSched
	cfg.Scale = 0.15
	cfg.CPUs = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPhoto(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-application benchmarks (the Figure 8/9 cells) ----------------

func benchApp(b *testing.B, app, policy string, cpus int) {
	b.Helper()
	cfg := benchSched
	cfg.CPUs = cpus
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunSched(app, policy, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.EMisses), "Emisses")
	}
}

func BenchmarkAppTasksFCFS(b *testing.B) { benchApp(b, "tasks", "FCFS", 1) }
func BenchmarkAppTasksLFF(b *testing.B)  { benchApp(b, "tasks", "LFF", 1) }
func BenchmarkAppMergeFCFS(b *testing.B) { benchApp(b, "merge", "FCFS", 1) }
func BenchmarkAppMergeLFF(b *testing.B)  { benchApp(b, "merge", "LFF", 1) }
func BenchmarkAppPhotoFCFS(b *testing.B) { benchApp(b, "photo", "FCFS", 8) }
func BenchmarkAppPhotoLFF(b *testing.B)  { benchApp(b, "photo", "LFF", 8) }
func BenchmarkAppTSPFCFS(b *testing.B)   { benchApp(b, "tsp", "FCFS", 8) }
func BenchmarkAppTSPLFF(b *testing.B)    { benchApp(b, "tsp", "LFF", 8) }

// --- Checkpoint overhead ----------------------------------------------

// benchCheckpoint measures one tasks/LFF cell on 4 CPUs with and
// without per-boundary checkpoints; the Off/On pair feeds the 2%
// overhead gate in benchgate.sh. Checkpoints go where atsimd sends
// them: OnCheckpoint writes each receipt atomically to a file
// (capture is read-only, so the cost is sealing plus the atomic
// write).
func benchCheckpoint(b *testing.B, every uint64) {
	b.Helper()
	app, err := workloads.SchedAppByName("tasks")
	if err != nil {
		b.Fatal(err)
	}
	var ckpt rt.CheckpointConfig
	if every > 0 {
		path := filepath.Join(b.TempDir(), "bench.snap")
		ckpt = rt.CheckpointConfig{
			Every:        every,
			OnCheckpoint: func(st *snapshot.State) error { return st.WriteFile(path) },
		}
	}
	for i := 0; i < b.N; i++ {
		e, err := rt.New(sim.New(machine.New(machine.Enterprise5000(4))),
			rt.Options{Policy: "LFF", Seed: benchSched.Seed, Checkpoint: ckpt})
		if err != nil {
			b.Fatal(err)
		}
		app.Spawn(e, benchSched.Scale)
		if err := e.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointOff(b *testing.B) { benchCheckpoint(b, 0) }
func BenchmarkCheckpointOn(b *testing.B)  { benchCheckpoint(b, 200000) }

// --- Substrate microbenchmarks ----------------------------------------

// BenchmarkContextSwitch measures the full engine context-switch path
// (block, model updates, pick, dispatch) via a yield ping-pong.
func BenchmarkContextSwitch(b *testing.B) {
	sys, err := New(Config{Policy: LFF, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	sys.Spawn("a", func(t *Thread) {
		for i := 0; i < n; i++ {
			t.Yield()
		}
	})
	sys.Spawn("b", func(t *Thread) {
		for i := 0; i < n; i++ {
			t.Yield()
		}
	})
	b.ResetTimer()
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMarkovEvolve measures the appendix Markov chain evolution
// used to cross-check the closed form.
func BenchmarkMarkovEvolve(b *testing.B) {
	mk := model.NewMarkov(256, 0.5)
	dist := make([]float64, 257)
	dist[128] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mk.Evolve(dist, 100)
	}
}

// BenchmarkTraceGen measures reference-stream generation.
func BenchmarkTraceGen(b *testing.B) {
	pat := trace.Pattern{
		Fresh: mem.Range{Base: 1 << 20, Len: 4 << 20}, MeanRunWords: 8,
		Hot: mem.Range{Base: 1 << 20, Len: 64 << 10}, PHot: 0.3,
		WriteFrac: 0.3, ComputePerRef: 4,
	}
	g := trace.NewGen(pat, 3)
	var batch mem.Batch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = batch[:0]
		batch, _ = g.Emit(batch, 4096)
	}
	b.ReportMetric(4096, "refs/op")
}

// --- Observability benchmarks -------------------------------------------
//
// BenchmarkObsOff vs BenchmarkObsTrace is the telemetry overhead
// record: Off measures the disabled path (the nil-observer guards on
// every emission site — the number that must stay within 2% of the
// pre-telemetry baseline in BENCH_*.json), Metrics and Trace measure
// what enabling each level costs. bench.sh captures all three, so the
// committed JSON carries the on/off delta run over run.

func benchObs(b *testing.B, level obs.Level) {
	b.Helper()
	cfg := benchSched
	cfg.CPUs = 4
	for i := 0; i < b.N; i++ {
		cfg.Obs = obs.NewSession(level, 0)
		if _, err := experiments.RunSched("tasks", "LFF", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsOff(b *testing.B)     { benchObs(b, obs.Off) }
func BenchmarkObsMetrics(b *testing.B) { benchObs(b, obs.Metrics) }
func BenchmarkObsTrace(b *testing.B)   { benchObs(b, obs.Trace) }

// BenchmarkObsExport measures turning a traced run into all three
// export formats (the offline cost, paid once per run).
func BenchmarkObsExport(b *testing.B) {
	cfg := benchSched
	cfg.CPUs = 4
	session := obs.NewSession(obs.Trace, 0)
	cfg.Obs = session
	if _, err := experiments.RunSched("tasks", "LFF", cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WriteChromeTrace(io.Discard, session.Cells()); err != nil {
			b.Fatal(err)
		}
		if err := obs.WritePrometheus(io.Discard, session.MergedSnapshot()); err != nil {
			b.Fatal(err)
		}
		if err := obs.WriteCSVTimeline(io.Discard, session.Cells()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObsServer runs one traced session to completion on an in-process
// atsimd server per iteration, optionally with a live /obs?follow=1
// consumer attached over real HTTP. The ObsServe/ObsFollow pair is the
// live-streaming overhead record: the delta is what a continuously
// draining follower costs the engine, and the committed baseline keeps
// both within the overhead budget run over run.
func benchObsServer(b *testing.B, follow bool) {
	b.Helper()
	srv, err := server.New(server.Config{
		DataDir: b.TempDir(), Workers: 2, DefaultQuantum: 50_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cfg := server.SessionConfig{
		App: "tasks", Policy: "LFF", CPUs: 2, Scale: 0.05,
		Quantum: 50_000, Obs: "trace",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(1000 + i)
		info, err := srv.CreateSession(context.Background(), "", cfg)
		if err != nil {
			b.Fatal(err)
		}
		drained := make(chan error, 1)
		if follow {
			resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/obs?follow=1")
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				_, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				drained <- err
			}()
		}
		if _, err := srv.Step(context.Background(), info.ID, 0); err != nil {
			b.Fatal(err)
		}
		if follow {
			if err := <-drained; err != nil {
				b.Fatal(err)
			}
		}
		if err := srv.Delete(context.Background(), info.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsServe(b *testing.B)  { benchObsServer(b, false) }
func BenchmarkObsFollow(b *testing.B) { benchObsServer(b, true) }

// --- Extension benchmarks ----------------------------------------------

// BenchmarkInferenceStudy regenerates the Section 7 inference
// comparison (annotations vs none vs inferred) at reduced scale.
func BenchmarkInferenceStudy(b *testing.B) {
	cfg := benchSched
	cfg.Scale = 0.25
	for i := 0; i < b.N; i++ {
		if _, err := experiments.InferenceStudy("photo", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageMapping regenerates the careful-vs-naive page placement
// ablation.
func BenchmarkPageMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.PageMapping(benchStudy)
	}
}

// BenchmarkMissBreakdown regenerates the three-C's miss classification
// table.
func BenchmarkMissBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.MissBreakdown(benchStudy)
	}
}

// BenchmarkAssocModel measures the set-associative model extension.
func BenchmarkAssocModel(b *testing.B) {
	am := model.NewAssocModel(2048, 4)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += am.ExpectSelf(uint64(i % 100000))
	}
	_ = sink
}

// BenchmarkInferenceMonitorTouch measures the per-miss cost of the
// software Cache Miss Lookaside buffer.
func BenchmarkInferenceMonitorTouch(b *testing.B) {
	mon := inference.NewMonitor(8192)
	for i := 0; i < b.N; i++ {
		mon.Touch(mem.ThreadID(i%16), mem.Addr(uint64(i%4096)*8192))
	}
}
