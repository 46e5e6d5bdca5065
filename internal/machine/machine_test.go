package machine

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/perfctr"
	"repro/internal/vm"
	"repro/internal/xrand"
)

// smallConfig shrinks the caches so eviction behaviour is testable.
func smallConfig(cpus int) Config {
	c := Enterprise5000(cpus)
	c.L1I.Size = 512
	c.L1D.Size = 512
	c.L2.Size = 4096 // 64 lines
	c.PageSize = 1024
	return c
}

func TestUltraSPARC1Parameters(t *testing.T) {
	c := UltraSPARC1()
	if c.CPUs != 1 || c.MissCycles != 42 {
		t.Errorf("Ultra-1 config wrong: %+v", c)
	}
	if c.L2.Lines() != 8192 {
		t.Errorf("E-cache lines = %d, want 8192", c.L2.Lines())
	}
	if c.L1I.Assoc != 2 || c.L1D.Assoc != 1 || c.L2.Assoc != 1 {
		t.Error("associativities do not match Table 1")
	}
	e := Enterprise5000(8)
	if e.CPUs != 8 || e.MissCycles != 50 || e.MissCyclesRemote != 80 {
		t.Errorf("E5000 config wrong: %+v", e)
	}
}

func TestApplyCountsAndCycles(t *testing.T) {
	m := New(UltraSPARC1())
	r := m.Alloc(1024, 0)
	// 16 sequential 64-byte-spaced reads: all cold misses.
	misses := m.Apply(0, 1, mem.Batch{mem.Read(r.Base, 16, 64, 8)})
	if misses != 16 {
		t.Errorf("cold misses = %d, want 16", misses)
	}
	cpu := m.CPU(0)
	if cpu.ERefs != 16 || cpu.EMisses != 16 || cpu.EHits != 0 {
		t.Errorf("counters: refs %d hits %d misses %d", cpu.ERefs, cpu.EHits, cpu.EMisses)
	}
	if cpu.Cycles != 16*42 {
		t.Errorf("cycles = %d, want %d", cpu.Cycles, 16*42)
	}
	if cpu.Instrs != 16 {
		t.Errorf("instrs = %d", cpu.Instrs)
	}
	// Re-read: L1D has 16-byte lines, so the same 16 addresses now hit
	// in L1D.
	if got := m.Apply(0, 1, mem.Batch{mem.Read(r.Base, 16, 64, 8)}); got != 0 {
		t.Errorf("warm misses = %d", got)
	}
	if cpu.Cycles != 16*42+16*1 {
		t.Errorf("warm cycles = %d", cpu.Cycles)
	}
}

func TestPICProtocol(t *testing.T) {
	// The runtime's protocol: snapshot PICs, run, snapshot, derive
	// misses — must agree with the shadow counters.
	m := New(UltraSPARC1())
	r := m.Alloc(64*1024, 0)
	cpu := m.CPU(0)
	base := cpu.PMU.Read()
	m.Apply(0, 1, mem.Batch{mem.ReadRange(r.Base, 32*1024)})
	got := perfctr.MissesSince(cpu.PMU.Read(), base)
	if got != cpu.EMisses {
		t.Errorf("PIC-derived misses %d != shadow %d", got, cpu.EMisses)
	}
	if got != 32*1024/64 {
		t.Errorf("sequential sweep misses = %d, want %d", got, 32*1024/64)
	}
}

func TestStraddlingReferenceCostsTwoProbes(t *testing.T) {
	m := New(UltraSPARC1())
	r := m.Alloc(1024, 64)
	// An 8-byte read at offset 12 crosses the 16-byte L1D line.
	m.Apply(0, 1, mem.Batch{{Base: r.Base + 12, Count: 1, Stride: 0, Size: 8}})
	cpu := m.CPU(0)
	// Both halves land in the same 64-byte L2 line: 1 miss + 1 hit.
	if cpu.ERefs != 2 || cpu.EMisses != 1 || cpu.EHits != 1 {
		t.Errorf("straddle: refs %d hits %d misses %d", cpu.ERefs, cpu.EHits, cpu.EMisses)
	}
}

func TestAdvance(t *testing.T) {
	m := New(UltraSPARC1())
	m.Advance(0, 500)
	m.AdvanceCycles(0, 42)
	cpu := m.CPU(0)
	if cpu.Cycles != 542 || cpu.Instrs != 500 {
		t.Errorf("cycles %d instrs %d", cpu.Cycles, cpu.Instrs)
	}
}

func TestTouchCode(t *testing.T) {
	m := New(UltraSPARC1())
	code := m.Alloc(1024, 64) // 32 I-lines, 16 L2 lines
	m.TouchCode(0, 1, code)
	cpu := m.CPU(0)
	if cpu.EMisses != 16 {
		t.Errorf("code reload misses = %d, want 16", cpu.EMisses)
	}
	// Second touch: everything hits in L1I.
	before := cpu.Cycles
	m.TouchCode(0, 1, code)
	if cpu.EMisses != 16 {
		t.Errorf("warm code fetch missed: %d", cpu.EMisses)
	}
	if cpu.Cycles-before != 32 {
		t.Errorf("warm code fetch cost %d cycles, want 32", cpu.Cycles-before)
	}
	m.TouchCode(0, 1, mem.Range{}) // empty region: no-op
}

func TestCodeSharedBetweenThreads(t *testing.T) {
	// Two threads running the same code region: the second dispatch
	// finds the text resident — shared text needs no reload.
	m := New(UltraSPARC1())
	code := m.Alloc(2048, 64)
	m.TouchCode(0, 1, code)
	missesBefore := m.CPU(0).EMisses
	m.TouchCode(0, 2, code)
	if m.CPU(0).EMisses != missesBefore {
		t.Error("second thread reloaded shared text")
	}
}

func TestRemoteDirtyPenalty(t *testing.T) {
	m := New(smallConfig(2))
	r := m.Alloc(64, 64)
	// CPU 0 writes the line (dirty in its E-cache).
	m.Apply(0, 1, mem.Batch{mem.Write(r.Base, 1, 0, 8)})
	c1Before := m.CPU(1).Cycles
	// CPU 1 reads it: remote-dirty fill, 80 cycles.
	m.Apply(1, 2, mem.Batch{mem.Read(r.Base, 1, 0, 8)})
	if got := m.CPU(1).Cycles - c1Before; got != 80 {
		t.Errorf("remote-dirty fill cost %d cycles, want 80", got)
	}
	// A third CPU-1 read hits locally now.
	c1Before = m.CPU(1).Cycles
	m.Apply(1, 2, mem.Batch{mem.Read(r.Base, 1, 0, 8)})
	if got := m.CPU(1).Cycles - c1Before; got != 1 {
		t.Errorf("local re-read cost %d cycles, want 1 (L1D hit)", got)
	}
}

func TestCleanMissPenalty(t *testing.T) {
	m := New(smallConfig(2))
	r := m.Alloc(64, 64)
	m.Apply(0, 1, mem.Batch{mem.Read(r.Base, 1, 0, 8)}) // clean copy on CPU 0
	c1Before := m.CPU(1).Cycles
	m.Apply(1, 2, mem.Batch{mem.Read(r.Base, 1, 0, 8)})
	if got := m.CPU(1).Cycles - c1Before; got != 50 {
		t.Errorf("clean shared fill cost %d cycles, want 50", got)
	}
}

func TestWriteInvalidatesRemoteCopies(t *testing.T) {
	m := New(smallConfig(2))
	r := m.Alloc(64, 64)
	m.Apply(0, 1, mem.Batch{mem.Read(r.Base, 1, 0, 8)})
	m.Apply(1, 2, mem.Batch{mem.Read(r.Base, 1, 0, 8)})
	// Both cache the line shared. CPU 1 writes: CPU 0's copy must die.
	m.Apply(1, 2, mem.Batch{mem.Write(r.Base, 1, 0, 8)})
	pa := m.Mapper().Translate(r.Base)
	if m.CPU(0).Hier.L2.Contains(pa) {
		t.Error("remote copy survived a write")
	}
	if !m.CPU(1).Hier.L2.IsDirty(pa) {
		t.Error("writer's copy not dirty")
	}
	// CPU 0 re-reads: remote-dirty penalty.
	before := m.CPU(0).Cycles
	m.Apply(0, 1, mem.Batch{mem.Read(r.Base, 1, 0, 8)})
	if got := m.CPU(0).Cycles - before; got != 80 {
		t.Errorf("read-after-remote-write cost %d, want 80", got)
	}
}

func TestWriteMissInvalidates(t *testing.T) {
	m := New(smallConfig(2))
	r := m.Alloc(64, 64)
	m.Apply(0, 1, mem.Batch{mem.Read(r.Base, 1, 0, 8)})
	// CPU 1 write-misses the line: CPU 0's copy must be invalidated.
	m.Apply(1, 2, mem.Batch{mem.Write(r.Base, 1, 0, 8)})
	pa := m.Mapper().Translate(r.Base)
	if m.CPU(0).Hier.L2.Contains(pa) {
		t.Error("copy survived a remote write miss")
	}
}

func TestEvictionReleasesDirectoryEntry(t *testing.T) {
	m := New(smallConfig(2))
	// Fill CPU 0's tiny L2 far beyond capacity so early lines evict.
	big := m.Alloc(64*1024, 64)
	m.Apply(0, 1, mem.Batch{mem.ReadRange(big.Base, 64*1024)})
	// The directory should track at most the lines actually resident
	// somewhere (64 per CPU).
	entries := 0
	m.dir.forEach(func(mem.Addr, dirEntry) { entries++ })
	if entries > 2*m.Config().L2.Lines() {
		t.Errorf("directory leaked: %d entries for %d-line caches", entries, m.Config().L2.Lines())
	}
}

func TestFootprintTracking(t *testing.T) {
	cfg := UltraSPARC1()
	cfg.TrackFootprints = true
	m := New(cfg)
	state := m.AllocPages(64 * 100) // 100 lines
	m.RegisterState(7, state)
	m.Apply(0, 7, mem.Batch{mem.ReadRange(state.Base, 64*100)})
	if got := m.Footprint(0, 7); got != 100 {
		t.Errorf("footprint = %d, want 100", got)
	}
	m.FlushCaches()
	if got := m.Footprint(0, 7); got != 0 {
		t.Errorf("footprint after flush = %d", got)
	}
}

func TestFootprintWithoutTrackingPanics(t *testing.T) {
	m := New(UltraSPARC1())
	defer func() {
		if recover() == nil {
			t.Error("Footprint without tracking did not panic")
		}
	}()
	m.Footprint(0, 1)
}

func TestAllocDisjointAndAligned(t *testing.T) {
	m := New(UltraSPARC1())
	a := m.Alloc(100, 0)
	b := m.Alloc(100, 256)
	if a.End() > b.Base {
		t.Error("allocations overlap")
	}
	if uint64(b.Base)%256 != 0 {
		t.Error("alignment not honoured")
	}
	p := m.AllocPages(100)
	if uint64(p.Base)%m.Config().PageSize != 0 || p.Len != m.Config().PageSize {
		t.Errorf("AllocPages: %+v", p)
	}
}

func TestTotals(t *testing.T) {
	m := New(smallConfig(2))
	r := m.Alloc(4096, 64)
	m.Apply(0, 1, mem.Batch{mem.ReadRange(r.Base, 2048)})
	m.Apply(1, 2, mem.Batch{mem.ReadRange(r.Base+2048, 2048)})
	refs, hits, misses := m.Totals()
	if refs != hits+misses {
		t.Errorf("refs %d != hits %d + misses %d", refs, hits, misses)
	}
	if m.TotalInstrs() != 512 { // 4096 bytes / 8-byte refs
		t.Errorf("TotalInstrs = %d", m.TotalInstrs())
	}
	if m.MaxCycles() == 0 {
		t.Error("MaxCycles = 0")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		m := New(Enterprise5000(4))
		r := m.Alloc(1<<20, 0)
		for cpu := 0; cpu < 4; cpu++ {
			m.Apply(cpu, mem.ThreadID(cpu), mem.Batch{mem.ReadRange(r.Base+mem.Addr(cpu*1024), 256*1024)})
		}
		_, _, misses := m.Totals()
		return misses, m.MaxCycles()
	}
	m1, c1 := run()
	m2, c2 := run()
	if m1 != m2 || c1 != c2 {
		t.Errorf("nondeterministic machine: (%d,%d) vs (%d,%d)", m1, c1, m2, c2)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, breakIt := range []func(*Config){
		func(c *Config) { c.CPUs = 0 },
		func(c *Config) { c.CPUs = 257 },
		func(c *Config) { c.MissCycles = 0 },
		func(c *Config) { c.PageSize = 1000 },
		func(c *Config) { c.PageSize = 16 }, // smaller than L2 line
	} {
		cfg := UltraSPARC1()
		breakIt(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestCoherenceInvariantsUnderRandomTraffic drives mixed read/write
// traffic from four CPUs over a small shared region and checks the
// write-invalidate invariants throughout.
func TestCoherenceInvariantsUnderRandomTraffic(t *testing.T) {
	m := New(smallConfig(4))
	region := m.Alloc(16*1024, 64)
	rng := newTestRNG(77)
	for step := 0; step < 4000; step++ {
		cpu := int(rng.Uint64n(4))
		off := rng.Uint64n(region.Len) &^ 7
		write := rng.Uint64n(3) == 0
		a := mem.Access{Base: region.Base + mem.Addr(off), Count: 1, Size: 8, Write: write}
		m.Apply(cpu, mem.ThreadID(cpu), mem.Batch{a})
		if step%200 == 0 {
			if err := m.CheckCoherence(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestCoherenceUniprocessorTrivial: no directory, always coherent.
func TestCoherenceUniprocessorTrivial(t *testing.T) {
	m := New(UltraSPARC1())
	r := m.Alloc(4096, 64)
	m.Apply(0, 1, mem.Batch{mem.WriteRange(r.Base, 4096)})
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// newTestRNG avoids importing xrand at the top of the existing test
// file's import block.
func newTestRNG(seed uint64) *xrand.Source { return xrand.New(seed) }

func TestTLBOffByDefault(t *testing.T) {
	m := New(UltraSPARC1())
	r := m.Alloc(1<<20, 0)
	m.Apply(0, 1, mem.Batch{mem.ReadRange(r.Base, 1<<20)})
	if m.CPU(0).TLBMisses != 0 {
		t.Errorf("TLB misses counted without TLBEntries: %d", m.CPU(0).TLBMisses)
	}
}

func TestTLBMissesAndPenalty(t *testing.T) {
	cfg := UltraSPARC1()
	cfg.TLBEntries = 64
	cfg.TLBMissCycles = 28
	m := New(cfg)
	// Touch 128 distinct pages twice: a 64-entry direct-mapped TLB
	// thrashes (pages 0..127 alias pairwise), so every page touch is a
	// TLB miss on both passes.
	base := m.AllocPages(128 * 8192)
	var batch mem.Batch
	for pass := 0; pass < 2; pass++ {
		for p := uint64(0); p < 128; p++ {
			batch = append(batch, mem.Access{Base: base.Base + mem.Addr(p*8192), Count: 1, Size: 8})
		}
	}
	before := m.CPU(0).Cycles
	m.Apply(0, 1, batch)
	if got := m.CPU(0).TLBMisses; got != 256 {
		t.Errorf("TLB misses = %d, want 256", got)
	}
	// The penalty is visible in the clock: at least 256*28 cycles on
	// top of the memory traffic.
	if got := m.CPU(0).Cycles - before; got < 256*28 {
		t.Errorf("cycles = %d, want >= %d of TLB stall alone", got, 256*28)
	}
}

func TestTLBLocalityHits(t *testing.T) {
	cfg := UltraSPARC1()
	cfg.TLBEntries = 64
	m := New(cfg)
	page := m.AllocPages(8192)
	// 100 references within one page: one TLB miss.
	m.Apply(0, 1, mem.Batch{mem.Read(page.Base, 100, 8, 8)})
	if got := m.CPU(0).TLBMisses; got != 1 {
		t.Errorf("TLB misses = %d, want 1", got)
	}
}

func TestTLBPerCPU(t *testing.T) {
	cfg := Enterprise5000(2)
	cfg.TLBEntries = 64
	m := New(cfg)
	page := m.AllocPages(8192)
	m.Apply(0, 1, mem.Batch{mem.Read(page.Base, 1, 0, 8)})
	m.Apply(1, 2, mem.Batch{mem.Read(page.Base, 1, 0, 8)})
	if m.CPU(0).TLBMisses != 1 || m.CPU(1).TLBMisses != 1 {
		t.Errorf("per-CPU TLB misses = %d/%d, want 1/1",
			m.CPU(0).TLBMisses, m.CPU(1).TLBMisses)
	}
}

func TestTLBValidation(t *testing.T) {
	cfg := UltraSPARC1()
	cfg.TLBEntries = 48
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two TLB accepted")
		}
	}()
	New(cfg)
}

func TestMemoryTraffic(t *testing.T) {
	m := New(UltraSPARC1())
	r := m.Alloc(64*1024, 64)
	// Fill 1024 lines by writing them: 64KB of fills, and once the
	// cache evicts (it won't here: 64KB < 512KB), write-backs.
	m.Apply(0, 1, mem.Batch{mem.WriteRange(r.Base, 64*1024)})
	tr := m.MemoryTraffic()
	if tr.FillBytes != 64*1024 {
		t.Errorf("fill bytes = %d, want %d", tr.FillBytes, 64*1024)
	}
	if tr.WritebackBytes != 0 {
		t.Errorf("writeback bytes = %d before any eviction", tr.WritebackBytes)
	}
	// Sweep 1MB of reads: the dirty 64KB must wash out as write-backs.
	big := m.Alloc(1<<20, 64)
	m.Apply(0, 1, mem.Batch{mem.ReadRange(big.Base, 1<<20)})
	tr = m.MemoryTraffic()
	if tr.WritebackBytes != 64*1024 {
		t.Errorf("writeback bytes = %d, want %d", tr.WritebackBytes, 64*1024)
	}
	if tr.Total() != tr.FillBytes+tr.WritebackBytes {
		t.Error("Total inconsistent")
	}
}

func TestCoherenceThreeCPUChain(t *testing.T) {
	// Write on 0, read on 1 (downgrade), read on 2 (clean share), write
	// on 2 (invalidate 0 and 1), read on 0 (remote dirty).
	m := New(smallConfig(3))
	r := m.Alloc(64, 64)
	pa := m.Mapper().Translate(r.Base)
	m.Apply(0, 1, mem.Batch{mem.Write(r.Base, 1, 0, 8)})
	m.Apply(1, 2, mem.Batch{mem.Read(r.Base, 1, 0, 8)})
	if m.CPU(0).Hier.L2.IsDirty(pa) {
		t.Error("owner still dirty after downgrade intervention")
	}
	m.Apply(2, 3, mem.Batch{mem.Read(r.Base, 1, 0, 8)})
	for i := 0; i < 3; i++ {
		if !m.CPU(i).Hier.L2.Contains(pa) {
			t.Fatalf("cpu %d lost its shared copy", i)
		}
		if !m.CPU(i).Hier.L2.IsShared(pa) {
			t.Errorf("cpu %d copy not marked shared", i)
		}
	}
	m.Apply(2, 3, mem.Batch{mem.Write(r.Base, 1, 0, 8)})
	if m.CPU(0).Hier.L2.Contains(pa) || m.CPU(1).Hier.L2.Contains(pa) {
		t.Error("stale copies survive the upgrade write")
	}
	if !m.CPU(2).Hier.L2.IsDirty(pa) {
		t.Error("writer's copy not dirty after upgrade")
	}
	before := m.CPU(0).Cycles
	m.Apply(0, 1, mem.Batch{mem.Read(r.Base, 1, 0, 8)})
	if got := m.CPU(0).Cycles - before; got != uint64(m.Config().MissCyclesRemote) {
		t.Errorf("remote-dirty refetch cost %d, want %d", got, m.Config().MissCyclesRemote)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestPhysicalLineKeyGuard reaches the caches' packed-key limit through
// the machine with identity-mapped synthetic addresses (one CPU, so no
// directory pages back them): a load beyond the E-cache key's reach
// panics at the E-cache fill, and one beyond only the 16-byte L1D
// line's reach panics at the L1D fill, on the fused sweep and on the
// per-reference path alike.
func TestPhysicalLineKeyGuard(t *testing.T) {
	for _, c := range []struct {
		va    mem.Addr
		cache string
	}{{1 << 36, "E"}, {20 << 30, "L1D"}} {
		for _, slow := range []bool{false, true} {
			cfg := Enterprise5000(1)
			cfg.PagePolicy = vm.Identity
			m := New(cfg)
			m.noFastApply = slow
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, c.cache+" line key overflow") {
						t.Errorf("load at %#x (noFastApply=%v): panic %q, want a %s line key overflow", c.va, slow, msg, c.cache)
					}
				}()
				m.Apply(0, 1, mem.Batch{{Base: c.va, Count: 1, Size: 8}})
			}()
		}
	}
}
