package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	threadlocality "repro"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/xrand"
)

// unattributedBound is the stated error of the layer-sum check: the
// median share of a figs cell or a serve step that no layer's span
// accounts for must stay below it.
const unattributedBound = 0.10

// probes is the traced run's shared layer section, identical for every
// workload: paired HTTP-vs-direct and obs-trace-vs-off steps, resume
// cost at three session ages, snapshot codec and fsatomic writes, the
// model update and the thread switch. lg holds the workload's own
// traced steps (serve workloads); nil makes the probe server's HTTP
// steps the serve layers' source instead.
func (r *run) probes(lg *serveLog) error {
	start := time.Now()
	dir := filepath.Join(r.work, "probe")
	srv, err := server.New(server.Config{DataDir: dir, MaxLive: 16, StallTimeout: 2 * time.Minute})
	if err != nil {
		return err
	}
	defer shutdown(srv)
	cl := &client{h: srv.Handler(), prefix: "p-"}
	probeLog := &serveLog{}
	if err := r.pairedProbes(srv, cl, probeLog); err != nil {
		return err
	}
	if err := r.resumeProbe(srv, cl); err != nil {
		return err
	}
	if lg == nil {
		if err := r.serverLayers(srv, dir, probeLog, time.Since(start)); err != nil {
			return err
		}
	}
	if err := r.snapshotProbe(dir, filepath.Join(r.work, "fsprobe")); err != nil {
		return err
	}
	modelProbe(r)
	if err := switchProbe(r); err != nil {
		return err
	}
	r.set("trace.overhead_frac", r.traceOverhead, "frac")
	unattributed := max(r.figsUnattributed, r.serveUnattributed)
	r.set("trace.unattributed_frac", unattributed, "frac")
	r.check(unattributed <= unattributedBound,
		"layer sum: %.3f of an op is unattributed (figs %.3f, serve %.3f), stated bound %.2f",
		unattributed, r.figsUnattributed, r.serveUnattributed, unattributedBound)
	r.extra["unattributed_figs_cell"] = r.figsUnattributed
	r.extra["unattributed_serve_step"] = r.serveUnattributed
	r.extra["probes_s"] = time.Since(start).Seconds()
	return nil
}

// probeSession is the session shape the paired probes use: atsimd
// callers' common case, short sessions at the server default obs level.
func probeSession(seed uint64, obsLevel string) server.SessionConfig {
	return server.SessionConfig{App: "tasks", Policy: "LFF", CPUs: 2, Scale: 0.05,
		Seed: sessionSeed(seed, 1000), Obs: obsLevel}
}

// pairedProbes steps three twin sessions in lockstep, one quantum at a
// time: one through ServeHTTP (its spans feed the serve layer
// decomposition when the workload has no steps of its own), and a
// traced and an untraced one by direct Server.Step, whose difference is
// obs publishing's cost. The sessions are compared at the same boundary
// of the same simulation, and the order alternates, so neither side of
// the obs pair always finds the caches warmed by the other.
func (r *run) pairedProbes(srv *server.Server, cl *client, lg *serveLog) error {
	const minPairs = 80
	ctx := context.Background()
	var obsDiff []float64
	var tracedSteps int
	var tracedID string
	for round := 0; len(obsDiff) < minPairs; round++ {
		viaHTTP, crep, err := cl.create(probeSession(r.seed, "trace"))
		if err != nil {
			return err
		}
		lg.creates = append(lg.creates, ms(crep.dur))
		direct, err := srv.CreateSession(ctx, "", probeSession(r.seed, "trace"))
		if err != nil {
			return err
		}
		untraced, err := srv.CreateSession(ctx, "", probeSession(r.seed, "off"))
		if err != nil {
			return err
		}
		for i := 0; ; i++ {
			var (
				res, dres, ures server.StepResult
				rep             reply
				dDirect, dOff   time.Duration
			)
			viaHandler := func() error {
				res, rep, err = cl.step(viaHTTP)
				return err
			}
			directStep := func() error {
				t0 := time.Now()
				dres, err = srv.Step(ctx, direct.ID, 1)
				dDirect = time.Since(t0)
				return err
			}
			untracedStep := func() error {
				t0 := time.Now()
				ures, err = srv.Step(ctx, untraced.ID, 1)
				dOff = time.Since(t0)
				return err
			}
			order := []func() error{viaHandler, directStep, untracedStep}
			if i%2 == 1 {
				order = []func() error{untracedStep, directStep, viaHandler}
			}
			for _, f := range order {
				if err := f(); err != nil {
					return err
				}
			}
			lg.steps = append(lg.steps, stepSample{dur: rep.dur, req: rep.req})
			r.check(res.Cycle == dres.Cycle && dres.Cycle == ures.Cycle,
				"paired probe sessions diverged: cycles %d/%d/%d", res.Cycle, dres.Cycle, ures.Cycle)
			obsDiff = append(obsDiff, ms(dDirect-dOff))
			if round == 0 {
				tracedSteps++
			}
			if res.State == server.StateDone {
				r.check(res.Result.Fingerprint == dres.Result.Fingerprint,
					"HTTP and direct twins disagree: %s vs %s", res.Result.Fingerprint, dres.Result.Fingerprint)
				break
			}
		}
		if round == 0 {
			tracedID = viaHTTP
			continue
		}
		drep, err := cl.del(viaHTTP)
		if err != nil {
			return err
		}
		lg.deletes = append(lg.deletes, ms(drep.dur))
	}
	seq, err := lastObsSeq(cl, tracedID)
	if err != nil {
		return err
	}
	r.set("obs.step_overhead_ms", median(obsDiff), "ms")
	r.set("obs.events_per_step", float64(seq)/float64(tracedSteps), "count")
	r.extra["paired_probe_pairs"] = len(obsDiff)
	return nil
}

// lastObsSeq reads a session's /obs stream and returns its cursor: the
// highest event sequence number published.
func lastObsSeq(cl *client, id string) (uint64, error) {
	rep := cl.do("GET", "/v1/sessions/"+id+"/obs", "")
	if rep.status != 200 {
		return 0, fmt.Errorf("obs %s: HTTP %d", id, rep.status)
	}
	var last uint64
	sc := bufio.NewScanner(bytes.NewReader(rep.body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var ev struct {
			Seq uint64 `json:"seq"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Seq > last {
			last = ev.Seq
		}
	}
	if last == 0 {
		return 0, fmt.Errorf("obs %s: no events", id)
	}
	return last, nil
}

// resumeReps is how many fresh sessions each resume age is timed on.
const resumeReps = 5

// resumeProbe times one 1-quantum Step right after an explicit Evict at
// 10%, 50% and 90% of a serve-churn-shaped session's life. Resume
// replays from step 0, so the cost should grow with age.
func (r *run) resumeProbe(srv *server.Server, cl *client) error {
	ctx := context.Background()
	cfg := churnServe.session(r.seed, 0)
	life, err := srv.CreateSession(ctx, "", cfg)
	if err != nil {
		return err
	}
	full, err := srv.Step(ctx, life.ID, 0)
	if err != nil {
		return err
	}
	for _, age := range []int{10, 50, 90} {
		var times []float64
		for rep := 0; rep < resumeReps; rep++ {
			info, err := srv.CreateSession(ctx, "", cfg)
			if err != nil {
				return err
			}
			if _, err := srv.Step(ctx, info.ID, full.Boundaries*uint64(age)/100); err != nil {
				return err
			}
			if _, err := srv.Evict(ctx, info.ID); err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := srv.Step(ctx, info.ID, 1); err != nil {
				return err
			}
			times = append(times, ms(time.Since(t0)))
			if rep < resumeReps-1 {
				// Keep one session per age evicted on disk for the
				// snapshot probe.
				if err := srv.Delete(ctx, info.ID); err != nil {
					return err
				}
			} else if _, err := srv.Evict(ctx, info.ID); err != nil {
				return err
			}
		}
		r.set(fmt.Sprintf("server.resume_ms.age%d", age), median(times), "ms")
	}
	return nil
}

// snapshotProbe decodes and re-encodes every session snapshot in dir,
// then times fsatomic writes of one into scratch with and without the
// fsync (plain os.WriteFile) — the disk figures are host behaviour.
func (r *run) snapshotProbe(dir, scratch string) error {
	files, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(files) == 0 {
		return fmt.Errorf("snapshot probe: no snapshots in %s", dir)
	}
	var sizes, enc, dec []float64
	var biggest *snapshot.State
	var biggestData []byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(len(data)))
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			st, err := snapshot.Load(bytes.NewReader(data))
			dec = append(dec, float64(time.Since(t0))/1e3)
			if err != nil {
				return fmt.Errorf("snapshot probe: %s: %w", f, err)
			}
			var buf bytes.Buffer
			t0 = time.Now()
			if err := st.Save(&buf); err != nil {
				return err
			}
			enc = append(enc, float64(time.Since(t0))/1e3)
			r.check(bytes.Equal(buf.Bytes(), data), "snapshot %s does not re-encode to its own bytes", filepath.Base(f))
			if len(data) >= len(biggestData) {
				biggest, biggestData = st, data
			}
		}
	}
	r.set("snapshot.bytes_p50", median(sizes), "B")
	r.set("snapshot.encode_us_p50", median(enc), "us")
	r.set("snapshot.decode_us_p50", median(dec), "us")

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	var synced, unsynced []float64
	for i := 0; i < 15; i++ {
		p := filepath.Join(scratch, fmt.Sprintf("w%d.snap", i%3))
		t0 := time.Now()
		if err := biggest.WriteFile(p); err != nil {
			return err
		}
		synced = append(synced, float64(time.Since(t0))/1e3)
		t0 = time.Now()
		if err := os.WriteFile(p+".plain", biggestData, 0o644); err != nil {
			return err
		}
		unsynced = append(unsynced, float64(time.Since(t0))/1e3)
	}
	r.set("fsatomic.write_us_p50", median(synced), "us")
	r.set("fsatomic.write_nosync_us_p50", median(unsynced), "us")
	r.extra["fsatomic_fs"] = fsType(scratch)
	return nil
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// modelProbe times one Blocking plus one Dependent footprint update per
// locality scheme, on seeded inputs sized to the Figure 9 machine.
func modelProbe(r *run) {
	const n = 1 << 16
	m := model.New(machine.Enterprise5000(figsCPUs).L2.Lines())
	rng := xrand.New(r.seed)
	type in struct {
		s, q  float64
		n, mt uint64
	}
	ins := make([]in, n)
	for i := range ins {
		ins[i] = in{s: float64(rng.Intn(4000)), q: float64(rng.Intn(100)) / 100,
			n: uint64(rng.Intn(500)), mt: uint64(i) * 37}
	}
	for _, name := range []string{"LFF", "CRT", "LFF-SH", "CRT-SH"} {
		sc, err := model.SchemeFor(name)
		if err != nil || sc == nil {
			r.check(false, "model probe: scheme %s: %v", name, err)
			continue
		}
		shared, _ := sc.(model.SharedScheme)
		var reps []float64
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			for _, x := range ins {
				if shared != nil {
					a, _ := shared.BlockingShared(m, x.s, x.n, 2*x.n, x.mt)
					b, _ := shared.DependentShared(m, x.s, a, x.q, x.n, 2*x.n, x.mt)
					sink += b
				} else {
					a, _ := sc.Blocking(m, x.s, x.n, x.mt)
					b, _ := sc.Dependent(m, x.s, a, x.q, x.n, x.mt)
					sink += b
				}
			}
			reps = append(reps, float64(time.Since(t0))/n)
		}
		r.set("model.update_ns."+name, median(reps), "ns")
	}
}

// switchProbe is a yield ping-pong through the public facade: two
// threads on one CPU handing it back and forth.
func switchProbe(r *run) error {
	const yields = 50000
	var reps []float64
	for rep := 0; rep < 3; rep++ {
		sys, err := threadlocality.New(threadlocality.Config{Policy: threadlocality.LFF, Seed: r.seed})
		if err != nil {
			return err
		}
		for _, name := range []string{"a", "b"} {
			sys.Spawn(name, func(t *threadlocality.Thread) {
				for i := 0; i < yields; i++ {
					t.Yield()
				}
			})
		}
		t0 := time.Now()
		if err := sys.Run(); err != nil {
			return err
		}
		reps = append(reps, float64(time.Since(t0))/(2*yields))
	}
	r.set("rt.switch_ns", median(reps), "ns")
	return nil
}
