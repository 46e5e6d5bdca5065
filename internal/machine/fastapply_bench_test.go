package machine

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/mem"
)

// benchApply measures the raw Apply throughput of a sequential
// read+write sweep over a working set of wsBytes, with and without the
// fused run path. Small sets exercise the hit paths, sets beyond the
// E-cache the miss/fill paths. On a shared topology the two CPUs take
// turns, so every pass also keeps the shared L2's sharer sets: loads
// rejoin lines the other CPU's stores left it the sole sharer of, and
// stores invalidate the other CPU's L1 copies.
func benchApply(b *testing.B, topo cachesim.Topology, slow bool, wsBytes uint64) {
	cfg := Enterprise5000(2)
	cfg.Topology = topo
	m := New(cfg)
	m.noFastApply = slow
	r := m.Alloc(wsBytes, 0)
	n := int32(wsBytes / 8)
	batch := mem.Batch{
		{Base: r.Base, Count: n, Stride: 8, Size: 8, Write: false},
		{Base: r.Base, Count: n, Stride: 8, Size: 8, Write: true},
	}
	cpus := 1
	if topo.Shared() {
		cpus = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Apply(i%cpus, 1, batch)
	}
	b.SetBytes(int64(2 * wsBytes))
}

var sharedLLC = cachesim.Topology{Kind: cachesim.TopoSharedLLC}

func BenchmarkApplySweepL1Fused(b *testing.B)  { benchApply(b, cachesim.Topology{}, false, 8<<10) }
func BenchmarkApplySweepL1Slow(b *testing.B)   { benchApply(b, cachesim.Topology{}, true, 8<<10) }
func BenchmarkApplySweepL2Fused(b *testing.B)  { benchApply(b, cachesim.Topology{}, false, 256<<10) }
func BenchmarkApplySweepL2Slow(b *testing.B)   { benchApply(b, cachesim.Topology{}, true, 256<<10) }
func BenchmarkApplySweepMemFused(b *testing.B) { benchApply(b, cachesim.Topology{}, false, 1<<20) }
func BenchmarkApplySweepMemSlow(b *testing.B)  { benchApply(b, cachesim.Topology{}, true, 1<<20) }

func BenchmarkApplySweepSharedL2Fused(b *testing.B)  { benchApply(b, sharedLLC, false, 256<<10) }
func BenchmarkApplySweepSharedL2Slow(b *testing.B)   { benchApply(b, sharedLLC, true, 256<<10) }
func BenchmarkApplySweepSharedMemFused(b *testing.B) { benchApply(b, sharedLLC, false, 1<<20) }
func BenchmarkApplySweepSharedMemSlow(b *testing.B)  { benchApply(b, sharedLLC, true, 1<<20) }

// touchCodeBody returns one dispatch's code fetch on a fresh
// Enterprise 5000: the runtime's 2 KB default code region through the
// 32 B-line L1I, resident after the first call, so the fetch lane's
// shape is one page translation and one 64-line hit run.
func touchCodeBody(slow bool) func() {
	m := New(Enterprise5000(2))
	m.noFastApply = slow
	code := m.Alloc(2048, 0)
	return func() { m.TouchCode(0, 1, code) }
}

// stridedBody returns the tasks benchmark's footprint touch on a fresh
// Enterprise 5000: one 8-byte load per 64 B line over 100 lines, all
// L1D-resident after the first call — the strided load streak's shape.
func stridedBody(slow bool) func() {
	m := New(Enterprise5000(2))
	m.noFastApply = slow
	r := m.Alloc(100*64, 64)
	batch := mem.Batch{{Base: r.Base, Count: 100, Stride: 64, Size: 8}}
	return func() { m.Apply(0, 1, batch) }
}

func benchBody(b *testing.B, body func()) {
	body()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

func BenchmarkTouchCodeFused(b *testing.B) { benchBody(b, touchCodeBody(false)) }
func BenchmarkTouchCodeSlow(b *testing.B)  { benchBody(b, touchCodeBody(true)) }

func BenchmarkApplySweepStridedFused(b *testing.B) { benchBody(b, stridedBody(false)) }
func BenchmarkApplySweepStridedSlow(b *testing.B)  { benchBody(b, stridedBody(true)) }

// TestLaneBenchmarksDoNotAllocate pins the fetch-lane and strided
// benchmarks' bodies, both lanes, at zero allocations per call.
func TestLaneBenchmarksDoNotAllocate(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(slow bool) func()
	}{{"TouchCode", touchCodeBody}, {"ApplySweepStrided", stridedBody}} {
		for _, slow := range []bool{false, true} {
			body := c.body(slow)
			body()
			if n := testing.AllocsPerRun(100, body); n != 0 {
				t.Errorf("%s (noFastApply=%v): %v allocations per call, want 0", c.name, slow, n)
			}
		}
	}
}

var machineSink *Machine

// BenchmarkMachineNew builds the paper's machine at two CPUs. Its
// bytes are almost all per-CPU cache state — slots and, for the
// associative L1I, LRU stamps — so B/op tracks the simulator's memory
// per simulated line.
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		machineSink = New(Enterprise5000(2))
	}
}
