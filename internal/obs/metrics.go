package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// The registry is handle-based: instrumentation sites call
// Registry.Counter/Gauge/Histogram once at setup and keep the returned
// handle, so the hot path is an atomic add on a per-CPU shard — no map
// lookups, no locks on counters. Histograms take one uncontended mutex
// per observation because stats.Online is not atomically updatable;
// the mutex exists only so a -debug-addr scrape mid-run is race-free,
// and the running engine is its only regular customer.
//
// Snapshots merge the per-CPU shards in fixed CPU order (and sessions
// merge cells in sorted-key order), so snapshot bytes are deterministic
// even though floating-point merging is order-sensitive.

// Registry holds one engine's metrics. Register metrics before the run
// starts; registration is not synchronized with updates. The metric
// slices are kept sorted by name, so registration lookups are binary
// searches and Snapshot emits in canonical order without sorting.
type Registry struct {
	ncpu   int
	counts []*Counter
	gauges []*Gauge
	hists  []*Histogram
}

// NewRegistry builds an empty registry sharded ncpu ways.
func NewRegistry(ncpu int) *Registry {
	return &Registry{ncpu: ncpu}
}

// Counter registers (or returns the existing) monotonically increasing
// counter with per-CPU shards.
func (r *Registry) Counter(name string) *Counter {
	i := sort.Search(len(r.counts), func(i int) bool { return r.counts[i].name >= name })
	if i < len(r.counts) && r.counts[i].name == name {
		return r.counts[i]
	}
	c := &Counter{name: name, shards: make([]counterShard, r.ncpu)}
	r.counts = append(r.counts, nil)
	copy(r.counts[i+1:], r.counts[i:])
	r.counts[i] = c
	return c
}

// Gauge registers (or returns the existing) scalar gauge.
func (r *Registry) Gauge(name string) *Gauge {
	i := sort.Search(len(r.gauges), func(i int) bool { return r.gauges[i].name >= name })
	if i < len(r.gauges) && r.gauges[i].name == name {
		return r.gauges[i]
	}
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, nil)
	copy(r.gauges[i+1:], r.gauges[i:])
	r.gauges[i] = g
	return g
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// bounds are the inclusive upper bucket bounds in ascending order; an
// implicit +Inf bucket is always present. Re-registering with different
// bounds keeps the original ones.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	i := sort.Search(len(r.hists), func(i int) bool { return r.hists[i].name >= name })
	if i < len(r.hists) && r.hists[i].name == name {
		return r.hists[i]
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		shards: make([]histShard, r.ncpu),
	}
	for j := range h.shards {
		h.shards[j].buckets = make([]uint64, len(bounds)+1)
	}
	r.hists = append(r.hists, nil)
	copy(r.hists[i+1:], r.hists[i:])
	r.hists[i] = h
	return h
}

// counterShard is one CPU's slot, padded out to a cache line so
// write-hot neighbouring shards never false-share (the leanstore
// pattern): at 256 simulated CPUs the adds all land on distinct lines.
type counterShard struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing counter with one cache-padded
// shard per CPU. Adds are atomic so a debug scrape mid-run is
// race-free.
type Counter struct {
	name   string
	shards []counterShard
}

// Add increments cpu's shard by n.
func (c *Counter) Add(cpu int, n uint64) { c.shards[cpu].v.Add(n) }

// Inc increments cpu's shard by one.
func (c *Counter) Inc(cpu int) { c.shards[cpu].v.Add(1) }

// Value returns the sum over all shards — an *approximate* global
// read: each shard is loaded atomically but the shards are not read at
// one instant, so a mid-run Value may miss adds that race with the
// scan. After the run (or at any engine quiescent point) it is exact.
func (c *Counter) Value() uint64 {
	var v uint64
	for i := range c.shards {
		v += c.shards[i].v.Load()
	}
	return v
}

// Gauge is a scalar last-value-wins metric (queue depths, model
// parameters). Stored as float bits so Set/Load are atomic.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type histShard struct {
	mu      sync.Mutex
	online  stats.Online
	buckets []uint64 // len(bounds)+1; last is +Inf
}

// Histogram is a fixed-bucket histogram with a stats.Online moment
// accumulator per CPU shard.
type Histogram struct {
	name   string
	bounds []float64
	shards []histShard
}

// Observe folds one observation into cpu's shard.
func (h *Histogram) Observe(cpu int, v float64) {
	s := &h.shards[cpu]
	s.mu.Lock()
	s.online.Add(v)
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (bounds are inclusive)
	s.buckets[i]++
	s.mu.Unlock()
}

// CounterSnap is one counter's merged value plus its per-CPU shards.
type CounterSnap struct {
	Name   string
	Value  uint64
	PerCPU []uint64
}

// GaugeSnap is one gauge's value.
type GaugeSnap struct {
	Name  string
	Value float64
}

// HistSnap is one histogram's shards merged in CPU order.
type HistSnap struct {
	Name    string
	Bounds  []float64
	Buckets []uint64 // cumulative by bucket index is NOT applied; raw counts, +Inf last
	Summary stats.Summary
}

// Snapshot is a point-in-time copy of a registry (or a merge of
// several), each section sorted by metric name.
type Snapshot struct {
	Counters   []CounterSnap
	Gauges     []GaugeSnap
	Histograms []HistSnap
}

// Snapshot copies the registry. Safe to call while the engine is
// running (counters and gauges are atomic, histogram shards lock), in
// which case the result is a consistent-enough live view; for
// deterministic export call it after the run.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var s Snapshot
	for _, c := range r.counts {
		cs := CounterSnap{Name: c.name, PerCPU: make([]uint64, len(c.shards))}
		for i := range c.shards {
			cs.PerCPU[i] = c.shards[i].v.Load()
			cs.Value += cs.PerCPU[i]
		}
		s.Counters = append(s.Counters, cs)
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Value: g.Value()})
	}
	for _, h := range r.hists {
		hs := HistSnap{Name: h.name, Bounds: append([]float64(nil), h.bounds...)}
		var merged stats.Online
		for i := range h.shards {
			sh := &h.shards[i]
			sh.mu.Lock()
			if hs.Buckets == nil {
				hs.Buckets = make([]uint64, len(sh.buckets))
			}
			for j, b := range sh.buckets {
				hs.Buckets[j] += b
			}
			o := sh.online
			sh.mu.Unlock()
			merged.Merge(&o)
		}
		hs.Summary = merged.Summary()
		s.Histograms = append(s.Histograms, hs)
	}
	// The registry slices are sorted at registration, so the snapshot
	// is already in canonical name order.
	return s
}

// MergeSnapshots combines two snapshots name-wise: counters and
// histogram buckets add (per-CPU shards add index-wise up to the
// shorter length), gauges keep b's value (last write wins), histogram
// summaries re-merge via stats.Online semantics on the moments we
// have. Merge order must be fixed by the caller for deterministic
// floats — Session.MergedSnapshot merges cells in sorted-key order.
// Both inputs are in canonical name order (Snapshot emits them that
// way), so the merge is a linear join — no scratch maps.
func MergeSnapshots(a, b Snapshot) Snapshot {
	out := Snapshot{}
	// Counters.
	for i, j := 0, 0; i < len(a.Counters) || j < len(b.Counters); {
		switch {
		case j >= len(b.Counters) || (i < len(a.Counters) && a.Counters[i].Name < b.Counters[j].Name):
			c := a.Counters[i]
			c.PerCPU = append([]uint64(nil), c.PerCPU...)
			out.Counters = append(out.Counters, c)
			i++
		case i >= len(a.Counters) || b.Counters[j].Name < a.Counters[i].Name:
			c := b.Counters[j]
			c.PerCPU = append([]uint64(nil), c.PerCPU...)
			out.Counters = append(out.Counters, c)
			j++
		default:
			c := CounterSnap{Name: a.Counters[i].Name, Value: a.Counters[i].Value + b.Counters[j].Value,
				PerCPU: append([]uint64(nil), a.Counters[i].PerCPU...)}
			for k := 0; k < len(c.PerCPU) && k < len(b.Counters[j].PerCPU); k++ {
				c.PerCPU[k] += b.Counters[j].PerCPU[k]
			}
			out.Counters = append(out.Counters, c)
			i++
			j++
		}
	}
	// Gauges: last write wins.
	for i, j := 0, 0; i < len(a.Gauges) || j < len(b.Gauges); {
		switch {
		case j >= len(b.Gauges) || (i < len(a.Gauges) && a.Gauges[i].Name < b.Gauges[j].Name):
			out.Gauges = append(out.Gauges, a.Gauges[i])
			i++
		case i >= len(a.Gauges) || b.Gauges[j].Name < a.Gauges[i].Name:
			out.Gauges = append(out.Gauges, b.Gauges[j])
			j++
		default:
			out.Gauges = append(out.Gauges, b.Gauges[j])
			i++
			j++
		}
	}
	// Histograms: buckets add; summaries combine with the Chan et al.
	// formulas reconstructed from the summary moments.
	for i, j := 0, 0; i < len(a.Histograms) || j < len(b.Histograms); {
		switch {
		case j >= len(b.Histograms) || (i < len(a.Histograms) && a.Histograms[i].Name < b.Histograms[j].Name):
			out.Histograms = append(out.Histograms, copyHist(a.Histograms[i]))
			i++
		case i >= len(a.Histograms) || b.Histograms[j].Name < a.Histograms[i].Name:
			out.Histograms = append(out.Histograms, copyHist(b.Histograms[j]))
			j++
		default:
			h := copyHist(a.Histograms[i])
			for k := 0; k < len(h.Buckets) && k < len(b.Histograms[j].Buckets); k++ {
				h.Buckets[k] += b.Histograms[j].Buckets[k]
			}
			h.Summary = mergeSummaries(h.Summary, b.Histograms[j].Summary)
			out.Histograms = append(out.Histograms, h)
			i++
			j++
		}
	}
	return out
}

func copyHist(h HistSnap) HistSnap {
	h.Bounds = append([]float64(nil), h.Bounds...)
	h.Buckets = append([]uint64(nil), h.Buckets...)
	return h
}

func mergeSummaries(a, b stats.Summary) stats.Summary {
	if b.N == 0 {
		return a
	}
	if a.N == 0 {
		return b
	}
	out := stats.Summary{N: a.N + b.N, Min: a.Min, Max: a.Max}
	if b.Min < out.Min {
		out.Min = b.Min
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	d := b.Mean - a.Mean
	n := float64(out.N)
	m2 := a.Var*float64(a.N) + b.Var*float64(b.N) + d*d*float64(a.N)*float64(b.N)/n
	out.Mean = a.Mean + d*float64(b.N)/n
	out.Var = m2 / n
	out.Std = math.Sqrt(out.Var)
	return out
}

// String renders a snapshot compactly for debugging.
func (s Snapshot) String() string {
	return fmt.Sprintf("snapshot{%d counters, %d gauges, %d histograms}",
		len(s.Counters), len(s.Gauges), len(s.Histograms))
}
