// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed wall-clock window, checks every
// output it produces, and prints one JSON result line as the last line
// of standard output:
//
//	perfbench --workload figs-private --seed 1 --seconds 20 --trace 0
//
// The figs workloads loop one figure's whole grid, one cell after
// another in one goroutine; the serve workload repeats one script of
// steps against an in-process atsimd server through its HTTP handler,
// with no sockets. Every cell and session seed derives from --seed.
//
// With --trace 0 the result carries the end-to-end metrics, the same
// names on every workload:
//
//	setup_s             one set-up, sampled across the window: building
//	                    every grid cell's machine and engine with threads
//	                    spawned (figs), or server.New over the populated
//	                    store (serve)
//	op_ms               host ms of one user operation: a whole grid pass
//	                    (figs) or a Step round trip (serve)
//	sim_minstr_per_s    simulated instructions per host second
//	alloc_b_per_kinstr  heap bytes allocated per 1000 simulated instrs
//	peak_rss_mb         the process's peak resident set
//
// Host contention on a small shared machine only ever slows a sample
// down, by up to 2x in phases of seconds, so the timings come from many
// samples of like work taken across the whole window and report the
// time the program reaches whenever the host lets it: the fastest
// sample (fastQuantile) of each grid cell (figs) or script step (serve)
// across passes, and likewise of the set-up samples. Means and medians
// of the same samples moved by 10-50% between identical runs on a
// two-core host; the fastest samples moved by a few percent. Every
// workload runs with GOMAXPROCS 1: the engine, its thread goroutines and
// the one client hand control to each other strictly in turn, and a
// second P only steals those handoffs, which made a cell both slower
// and far noisier.
//
// With --trace 1 the run is a separate traced run whose numbers never
// feed the end-to-end metrics. It times the calls into each layer from
// this package's own files: a platform decorator around platform/sim
// for the machine layer (rt is the rest of Engine.Run), the server's
// own span ring and metrics for the server layers, and paired probes
// for HTTP, obs, resume-at-age, snapshot, fsatomic, model and thread
// switch costs. Every traced run prints every per-layer metric; layers
// a workload does not exercise come from the shared probes.
//
// Correctness gates: every figs cell's counters must repeat on every
// pass and, for seed 1, equal the values pinned in pinned.go; traced
// cells must reproduce experiments.RunSched exactly; every serve pass
// must reproduce the first pass's steps, every boot must restore the
// whole population, and every finished serve session's fingerprint must
// equal its uninterrupted control twin's; a traced run's layers must account for a figs cell and a
// serve step within unattributedBound. A failed check is a failed
// operation and fails the run. Everything a run writes lives under
// .bench_build/ in the working directory, including a detail file per
// run in .bench_build/results with the environment stamp, the
// workload's reason and the layer predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark input set.
type workload struct {
	name string
	why  string
	// timed runs the measured window and returns its end-to-end
	// metrics; traced runs the per-layer run.
	timed  func(r *run) error
	traced func(r *run) error
}

var benchWorkloads = []workload{
	{
		name:   "figs-private",
		why:    "Figure 9 grid (4 apps x FCFS/LFF/CRT, 8 CPUs, private-dm) looped: direct-mapped fast lanes, coherence directory, rt rendezvous and sched dispatch",
		timed:  func(r *run) error { return figsTimed(r, privateGrid) },
		traced: func(r *run) error { return figsTraced(r, privateGrid) },
	},
	{
		name:   "figs-shared",
		why:    "SharedLLCSched matrix (4 apps x 5 policies, 8 CPUs, shared-llc) looped: generic way-scan lane, SharedL2 sharer masks, shared model forms",
		timed:  func(r *run) error { return figsTimed(r, sharedGrid) },
		traced: func(r *run) error { return figsTraced(r, sharedGrid) },
	},
	{
		name:   "serve-churn",
		why:    "in-process atsimd, 32 sessions over 4 live slots, obs off, 1 client: every step evicts (snapshot, fsatomic write) and resumes by replay",
		timed:  func(r *run) error { return serveTimed(r, churnServe) },
		traced: func(r *run) error { return serveTraced(r, churnServe) },
	},
}

// predictions records, per layer, which end-to-end metrics a change to
// that layer should move, on which workloads, and where it should move
// nothing. Every result carries it so later changes can cite it.
var predictions = []map[string]string{
	{"layer": "experiments", "metrics": "cell_ms.<app>.<policy>", "should_move": "op_ms", "on": "figs-*", "should_not_move_on": "serve-*"},
	{"layer": "machine/cachesim", "metrics": "machine.*", "should_move": "sim_minstr_per_s, op_ms", "on": "figs-private (direct-mapped lanes); figs-shared (generic lane, SharedL2)", "should_not_move_on": "the other figs workload; serve-*"},
	{"layer": "rt", "metrics": "rt.*", "should_move": "op_ms", "on": "figs-*; serve-churn", "should_not_move_on": "-"},
	{"layer": "sched/model", "metrics": "sched.*, model.update_ns.<policy>", "should_move": "op_ms", "on": "figs-shared (all five policies)", "should_not_move_on": "serve-*"},
	{"layer": "obs", "metrics": "obs.*", "should_move": "obs.step_overhead_ms (sessions at obs trace, the server default)", "on": "-", "should_not_move_on": "serve-churn (obs off); figs-*"},
	{"layer": "server", "metrics": "server.*", "should_move": "op_ms, server.step_ms_p99", "on": "serve-churn (admission, grants, eviction)", "should_not_move_on": "figs-*"},
	{"layer": "server resume", "metrics": "server.resume_ms.*", "should_move": "op_ms, sim_minstr_per_s", "on": "serve-churn", "should_not_move_on": "figs-*"},
	{"layer": "server HTTP", "metrics": "http.step_overhead_us_p50", "should_move": "op_ms", "on": "serve-churn", "should_not_move_on": "figs-*"},
	{"layer": "snapshot", "metrics": "snapshot.*", "should_move": "op_ms, snapshot.disk_kb_per_session", "on": "serve-churn", "should_not_move_on": "figs-*"},
	{"layer": "fsatomic", "metrics": "fsatomic.*", "should_move": "server.step_ms_p99", "on": "serve-churn", "should_not_move_on": "figs-*"},
	{"layer": "tracing", "metrics": "trace.*", "should_move": "-", "on": "all", "should_not_move_on": "-"},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation: its arguments, scratch directory,
// and the counts and metrics it accumulates.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	work     string // scratch directory, removed when the run ends

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	// extra is written to the run's detail file, never to stdout.
	extra map[string]any

	// Traced runs only: the engine matrix's tracing overhead, the
	// layer-sum residuals of a figs cell and of a serve step, and the
	// server's span ring as Chrome trace JSON, written out at the end.
	traceOverhead, figsUnattributed, serveUnattributed float64
	serverTrace                                        []byte
}

// check counts one gated operation; a false ok fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed; the default seed's figs counters are pinned")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	pin := flag.Bool("pin", false, "print the figs counters of the default seed as Go source for pinned.go")
	flag.Parse()
	if *pin {
		return printPins()
	}
	var wl *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			wl = &benchWorkloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", names())
		return 2
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	runtime.GOMAXPROCS(1) // see the package comment
	r := &run{
		workload: wl.name, seed: *seed, window: time.Duration(*seconds) * time.Second, work: work,
		metrics: map[string]metric{}, extra: map[string]any{},
	}
	steal0 := stealTicks()
	start := time.Now()
	if *trace == 1 {
		err = wl.traced(r)
	} else {
		err = wl.timed(r)
		r.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
		if r.attempted < r.failed {
			r.attempted = r.failed
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	env := environment(work)
	env["steal_ticks_during_run"] = stealTicks() - steal0
	r.extra["env"] = env
	r.extra["why"] = wl.why
	r.extra["predictions"] = predictions
	r.extra["wall_s"] = time.Since(start).Seconds()
	if err := r.writeDetail(*trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing detail file:", err)
	}
	stamp, _ := json.Marshal(map[string]any{"workload": wl.name, "seed": r.seed, "why": wl.why, "env": env, "predictions": predictions})
	fmt.Println(string(stamp))
	correct := r.failed == 0 && err == nil
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, r.metrics})
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

func names() string {
	var out []string
	for _, w := range benchWorkloads {
		out = append(out, w.name)
	}
	return strings.Join(out, ", ")
}

// writeDetail records the environment stamp, the workload's reason and
// predictions, the metrics and any per-run detail (spans, per-cell
// times) under .bench_build/results, outside the run's scratch dir.
func (r *run) writeDetail(trace int) error {
	dir := filepath.Join(filepath.Dir(r.work), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.extra["workload"] = r.workload
	r.extra["seed"] = r.seed
	r.extra["metrics"] = r.metrics
	r.extra["attempted"], r.extra["failed"], r.extra["problems"] = r.attempted, r.failed, r.problems
	data, err := json.MarshalIndent(r.extra, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s", r.workload, r.seed, trace, time.Now().UTC().Format("20060102T150405"))
	if r.serverTrace != nil {
		if err := os.WriteFile(filepath.Join(dir, name+"-server-trace.json"), r.serverTrace, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644)
}

// environment stamps the facts that change what the numbers mean.
func environment(dataDir string) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"datadir_fs":    fsType(dataDir),
		"steal_seen":    stealSeen(),
		"gogc":          os.Getenv("GOGC"),
		"measured_when": time.Now().UTC().Format(time.RFC3339),
	}
}

// fsType names the filesystem holding dir (tmpfs, ext4, overlay, ...).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlay"
	case 0x9123683E:
		return "btrfs"
	case 0x58465342:
		return "xfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// stealSeen reports whether the host has reported any steal time since
// boot; "unknown" when /proc/stat is unreadable.
func stealSeen() string {
	switch t := stealTicks(); {
	case t < 0:
		return "unknown"
	case t > 0:
		return "yes"
	}
	return "no"
}

// stealTicks is /proc/stat's steal time (the eighth cpu field) in clock
// ticks, or -1 when unreadable.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	t, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return t
}

// peakRSSMB is the process's peak resident set (VmHWM), or 0 when
// /proc/self/status is unreadable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// liveBytes forces a collection and returns live heap plus goroutine
// stacks (every simulated thread is a goroutine, so stacks are part of
// an engine's footprint).
func liveBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc + ms.StackInuse)
}

// totalAlloc is the cumulative bytes allocated on the heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation.
// Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastQuantile is the quantile of like timing samples a timed run
// reports: the fastest, the time the program takes whenever host
// contention lets it (see the package comment).
const fastQuantile = 0

// tailQuantile returns the 99th percentile when at least ten samples
// lie beyond it, else the highest quantile that has ten beyond it, and
// the quantile it used.
func tailQuantile(xs []float64) (float64, float64) {
	q := 0.99
	if n := float64(len(xs)); n*(1-q) < 10 {
		q = math.Max(0.5, 1-10/math.Max(n, 1))
	}
	return quantile(xs, q), q
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// mix64 is SplitMix64's finalizer: derives well-spread, reproducible
// sub-seeds from the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
