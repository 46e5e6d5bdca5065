package machine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/mem"
)

// The fused sweep path (cachesim.SweepDM via applySweep) must be
// event-for-event identical to the per-reference dataRef loop: same
// miss counts, same PIC values, same cycle charges, same cache line
// states and owners. These differentials drive the same access stream
// through a fused machine and a noFastApply machine and compare the
// full counter fingerprints. They are the safety net for every fast
// path layered into the sweep: the dense lane (contiguous power-of-two
// sweeps), the load hit-streak inside it, the L1/L2 carry memos, the
// group straddle shapes, the strided load streak and single
// references; and for TouchCode's fetch lane, against its per-line
// loop.

// applyBoth issues batch on both machines and fails if the returned
// miss counts differ.
func applyBoth(t *testing.T, fast, slow *Machine, cpu int, tid mem.ThreadID, batch mem.Batch) {
	t.Helper()
	fm := fast.Apply(cpu, tid, batch)
	sm := slow.Apply(cpu, tid, batch)
	if fm != sm {
		t.Fatalf("Apply(cpu=%d, %+v): fused %d misses, per-ref %d", cpu, batch, fm, sm)
	}
}

func comparePair(t *testing.T, fast, slow *Machine, cpus int, when string) {
	t.Helper()
	got, want := cpuFingerprint(fast, cpus), cpuFingerprint(slow, cpus)
	if got != want {
		t.Fatalf("%s: counters diverged:\nfused:\n%s\nper-ref:\n%s", when, got, want)
	}
}

func newPair(t *testing.T, cfg Config, ws uint64) (fast, slow *Machine, span mem.Range) {
	t.Helper()
	fast, slow = New(cfg), New(cfg)
	slow.noFastApply = true
	span = fast.Alloc(ws, 0)
	if s2 := slow.Alloc(ws, 0); s2 != span {
		t.Fatal("allocators diverged")
	}
	return fast, slow, span
}

// TestFastApplyHitStreak pins the dense-lane load hit-streak: a
// contiguous 8-byte sweep is issued twice, so the first pass exercises
// the miss/fill lane and the second pass is all L1D hits — exactly the
// shape the streak loop collapses into counter arithmetic.
func TestFastApplyHitStreak(t *testing.T) {
	for _, ws := range []uint64{4 << 10, 64 << 10} { // fits L1 / spills to L2
		fast, slow, span := newPair(t, Enterprise5000(2), ws)
		sweep := mem.Batch{{Base: span.Base, Count: int32(ws / 8), Stride: 8, Size: 8}}
		for pass := 0; pass < 3; pass++ {
			applyBoth(t, fast, slow, 0, 1, sweep)
		}
		// A store run from the second CPU breaks ownership mid-buffer,
		// then a reload must stop the streak at the invalidated lines.
		store := mem.Batch{{Base: span.Base + mem.Addr(ws/4), Count: 64, Stride: 8, Size: 8, Write: true}}
		applyBoth(t, fast, slow, 1, 2, store)
		applyBoth(t, fast, slow, 0, 1, sweep)
		comparePair(t, fast, slow, 2, "hit-streak")
	}
}

// fuzzShape draws one access from the differential fuzz's shapes:
// dense power-of-two sweeps (size==stride), straddle-heavy strides
// misaligned with the reference size, large strides, revisits of the
// buffer start, single references with no stride, negative strides,
// and line-strided loads.
func fuzzShape(rng *refLCG, span mem.Range) mem.Access {
	switch rng.next() % 7 {
	case 0:
		// Dense lane shape: contiguous power-of-two sweep.
		size := uint64(1) << (rng.next()%4 + 1) // 2..16
		return mem.Access{
			Base:   span.Base + mem.Addr((rng.next()%span.Len)&^(size-1)),
			Count:  int32(rng.next()%512) + 1,
			Stride: int32(size),
			Size:   uint16(size),
			Write:  rng.next()%4 == 0,
		}
	case 1:
		// Straddle-heavy: stride misaligned with size.
		return mem.Access{
			Base:   span.Base + mem.Addr(rng.next()%span.Len),
			Count:  int32(rng.next()%64) + 1,
			Stride: int32(rng.next()%48) + 1,
			Size:   uint16(1 << (rng.next() % 4)),
			Write:  rng.next()%3 == 0,
		}
	case 2:
		// Large stride: one probe per reference, page crossings.
		return mem.Access{
			Base:   span.Base + mem.Addr(rng.next()%span.Len),
			Count:  int32(rng.next()%24) + 1,
			Stride: int32(rng.next()%2048) + 32,
			Size:   8,
			Write:  rng.next()%3 == 0,
		}
	case 3:
		// Revisit the start of the buffer so later dense sweeps
		// hit resident lines (streak shape) or invalidated ones.
		return mem.Access{
			Base:   span.Base + mem.Addr((rng.next()%4096)&^7),
			Count:  int32(rng.next()%256) + 1,
			Stride: 8,
			Size:   8,
			Write:  rng.next()%2 == 0,
		}
	case 4:
		// One reference with no stride (the scheduler's overhead
		// touches), sometimes straddling an L1D line.
		return mem.Access{
			Base:  span.Base + mem.Addr(rng.next()%4096),
			Count: 1,
			Size:  uint16(1 << (rng.next() % 6)),
			Write: rng.next()%3 == 0,
		}
	case 5:
		// Negative stride: a backward walk from inside the buffer.
		return mem.Access{
			Base:   span.Base + 4096 + mem.Addr(rng.next()%4096),
			Count:  int32(rng.next()%64) + 1,
			Stride: -int32(rng.next()%64) - 1,
			Size:   8,
			Write:  rng.next()%3 == 0,
		}
	default:
		// Line-strided loads (the tasks benchmark's footprint touch)
		// over the buffer's first lines, so they often hit: one
		// reference per L1D line or more, straddling when the base
		// sits late in its line.
		stride := []int32{16, 32, 64, 128, 8192}[rng.next()%5]
		n := min(48, (span.Len-2048)/uint64(stride))
		return mem.Access{
			Base:   span.Base + mem.Addr((rng.next()%2048)&^3),
			Count:  int32(rng.next()%n) + 1,
			Stride: stride,
			Size:   8,
			Write:  rng.next()%8 == 0,
		}
	}
}

// inSpan reports whether every byte a touches lies inside span.
func inSpan(a mem.Access, span mem.Range) bool {
	first := int64(a.Base)
	last := first + int64(a.Count-1)*int64(a.Stride)
	lo, hi := min(first, last), max(first, last)+int64(a.Size)
	return lo >= int64(span.Base) && hi < int64(span.Base)+int64(span.Len)
}

// TestFastApplyMatchesPerReference fuzzes the fused sweep against the
// per-reference loop with a deterministic stream of the fuzzShape
// shapes, loads and stores, from several CPUs and threads so
// coherence events (shared fills, invalidations, dirty writebacks)
// land inside sweeps.
func TestFastApplyMatchesPerReference(t *testing.T) {
	for _, cpus := range []int{1, 4} {
		cfg := smallConfig(cpus)
		cfg.TLBEntries = 8
		fast, slow, span := newPair(t, cfg, 64<<10)

		rng := refLCG(987654321)
		for step := 0; step < 6000; step++ {
			cpu := int(rng.next()) % cpus
			tid := mem.ThreadID(rng.next() % 6)
			if a := fuzzShape(&rng, span); inSpan(a, span) {
				applyBoth(t, fast, slow, cpu, tid, mem.Batch{a})
			}
			if step%50 == 0 {
				compareState(t, fast, slow, fmt.Sprintf("step %d", step))
			}
		}
		compareState(t, fast, slow, "fuzz")
	}
}

// cacheState renders everything the fused lanes can move beyond
// cpuFingerprint: every CPU's L1I statistics and the resident lines of
// its L1s with their owners, in slot order (so an associative cache's
// way choice shows), and every resident L2 line with its owner, dirty
// and shared marks — per CPU on the private topology, once with its
// recorded sharer set on a shared one.
func cacheState(m *Machine) string {
	var b strings.Builder
	for i := 0; i < m.NCPU(); i++ {
		h := m.CPU(i).Hier
		fmt.Fprintf(&b, "cpu%d l1i=%+v\n", i, h.L1I.Stats())
		caches := []*cachesim.Cache{h.L1I, h.L1D}
		if m.shared == nil {
			caches = append(caches, h.L2)
		}
		for _, c := range caches {
			c.ForEachValidLine(func(line mem.Addr, owner mem.ThreadID) {
				fmt.Fprintf(&b, "  %s %#x owner=%d dirty=%v shared=%v\n",
					c.Config().Name, uint64(line), owner, c.IsDirty(line), c.IsShared(line))
			})
		}
	}
	if m.shared != nil {
		sc := m.shared.Cache()
		fmt.Fprintf(&b, "shared=%+v\n", sc.Stats())
		sc.ForEachValidLine(func(line mem.Addr, owner mem.ThreadID) {
			mask, _ := m.shared.Sharers(line)
			fmt.Fprintf(&b, "  %#x owner=%d dirty=%v shared=%v sharers=%x\n",
				uint64(line), owner, sc.IsDirty(line), sc.IsShared(line), mask)
		})
	}
	return b.String()
}

// compareState is comparePair plus cacheState and the machine-wide
// coherence and per-CPU inclusion checks.
func compareState(t *testing.T, fast, slow *Machine, when string) {
	t.Helper()
	comparePair(t, fast, slow, fast.NCPU(), when)
	if got, want := cacheState(fast), cacheState(slow); got != want {
		t.Fatalf("%s: cache state diverged:\nfused:\n%s\nper-ref:\n%s", when, got, want)
	}
	for _, m := range []*Machine{fast, slow} {
		if err := m.CheckCoherence(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for i := 0; i < m.NCPU(); i++ {
			if line, ok := m.CPU(i).Hier.CheckInclusion(); !ok {
				t.Fatalf("%s: cpu %d holds %#x without an L2 copy", when, i, uint64(line))
			}
		}
	}
}

// TestFastApplySharedLLCMatchesPerReference fuzzes the shared-llc
// sweep, whose L2 outcomes keep the shared cache's sharer sets, against
// the per-reference dataShared path over 6000 fuzzShape accesses.
// On a multiprocessor a quarter of the loads are followed by a store
// from another CPU into the loaded range and a reload by the first
// CPU, so store-hit invalidations land inside another CPU's load
// streak. Miss-hook calls are compared in order.
func TestFastApplySharedLLCMatchesPerReference(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("cpus=%d", cpus), func(t *testing.T) {
			cfg := smallConfig(cpus)
			cfg.TLBEntries = 8
			cfg.Topology = cachesim.Topology{Kind: cachesim.TopoSharedLLC}
			fast, slow, span := newPair(t, cfg, 64<<10)
			if !fast.CPU(0).Hier.FastData() {
				t.Fatal("shared-llc hierarchy does not take the fused sweep")
			}
			type missCall struct {
				tid mem.ThreadID
				va  mem.Addr
			}
			var fastMiss, slowMiss []missCall
			fast.MissHook = func(tid mem.ThreadID, va mem.Addr) { fastMiss = append(fastMiss, missCall{tid, va}) }
			slow.MissHook = func(tid mem.ThreadID, va mem.Addr) { slowMiss = append(slowMiss, missCall{tid, va}) }

			rng := refLCG(20011653)
			for steps := 0; steps < 6000; {
				cpu := int(rng.next()) % cpus
				tid := mem.ThreadID(rng.next() % 6)
				a := fuzzShape(&rng, span)
				if !inSpan(a, span) {
					continue
				}
				applyBoth(t, fast, slow, cpu, tid, mem.Batch{a})
				steps++
				if steps%50 == 0 {
					compareState(t, fast, slow, fmt.Sprintf("step %d", steps))
				}
				if cpus == 1 || a.Write || rng.next()%4 != 0 {
					continue
				}
				// Another CPU stores into the range just loaded, then
				// the loader sweeps it again.
				other := (cpu + 1 + int(rng.next()%uint64(cpus-1))) % cpus
				ext := uint64(a.Count) * uint64(a.Stride)
				st := mem.Access{
					Base:   a.Base + mem.Addr((rng.next()%(ext+1))&^7),
					Count:  int32(rng.next()%32) + 1,
					Stride: 8,
					Size:   8,
					Write:  true,
				}
				if inSpan(st, span) {
					applyBoth(t, fast, slow, other, tid+1, mem.Batch{st})
				}
				applyBoth(t, fast, slow, cpu, tid, mem.Batch{a})
			}
			compareState(t, fast, slow, "fuzz")
			if len(fastMiss) != len(slowMiss) {
				t.Fatalf("miss hook ran %d times fused, %d per-ref", len(fastMiss), len(slowMiss))
			}
			for i := range fastMiss {
				if fastMiss[i] != slowMiss[i] {
					t.Fatalf("miss hook call %d: fused %+v, per-ref %+v", i, fastMiss[i], slowMiss[i])
				}
			}
		})
	}
}

// TestFastApplySharedStoreHitUnmarkedLine pins the store-hit upkeep to
// the sharer set rather than the shared mark: CPU 0 loads a line, so
// it is the line's only sharer and the line carries no shared mark;
// CPU 1 then store-hits it, which must still invalidate CPU 0's L1D
// copy and leave CPU 1 the sole sharer.
func TestFastApplySharedStoreHitUnmarkedLine(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Topology = cachesim.Topology{Kind: cachesim.TopoSharedLLC}
	fast, slow, span := newPair(t, cfg, 4<<10)
	load := mem.Batch{{Base: span.Base, Count: 8, Stride: 8, Size: 8}}
	store := mem.Batch{{Base: span.Base, Count: 8, Stride: 8, Size: 8, Write: true}}
	for _, m := range []*Machine{fast, slow} {
		m.Apply(0, 1, load)
		line := m.translate(span.Base)
		if mask, _ := m.shared.Sharers(line); mask != [4]uint64{1} || m.shared.Cache().IsShared(line) {
			t.Fatalf("after CPU 0's load: sharers %x, shared mark %v; want {0}, unmarked",
				mask, m.shared.Cache().IsShared(line))
		}
		if m.Apply(1, 2, store) != 0 {
			t.Fatal("CPU 1's store missed the shared L2")
		}
		if m.CPU(0).Hier.L1D.Contains(line) {
			t.Fatalf("noFastApply=%v: CPU 0's L1D still holds %#x after CPU 1's store hit", m.noFastApply, uint64(line))
		}
		if mask, _ := m.shared.Sharers(line); mask != [4]uint64{2} {
			t.Fatalf("noFastApply=%v: sharers %x after CPU 1's store hit, want {1}", m.noFastApply, mask)
		}
		m.Apply(0, 1, load)
	}
	compareState(t, fast, slow, "store hit on an unmarked line")
}

// TestFastTouchCodeMatchesPerLine drives TouchCode's fetch lane
// (per-page translation, L1I hit runs) against the per-line reference
// on the private and shared-llc topologies. The code regions start
// 256 B apart or at odd offsets, so on the 2-way, 8-set L1I of
// smallConfig they collide set for set and the LRU order the hit runs
// leave decides which way the next fill evicts; some straddle the
// 1 KB pages. Data fuzz accesses interleave with the fetches, so L2
// fills evict code lines and inclusion drops them from the L1I.
func TestFastTouchCodeMatchesPerLine(t *testing.T) {
	for _, topo := range []cachesim.Topology{{}, {Kind: cachesim.TopoSharedLLC}} {
		for _, cpus := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/cpus=%d", topo, cpus), func(t *testing.T) {
				cfg := smallConfig(cpus)
				cfg.TLBEntries = 8
				cfg.Topology = topo
				fast, slow, span := newPair(t, cfg, 64<<10)
				code := fast.Alloc(8<<10, 1024)
				if slow.Alloc(8<<10, 1024) != code {
					t.Fatal("allocators diverged")
				}
				rng := refLCG(31415926)
				for step := 0; step < 6000; step++ {
					cpu := int(rng.next()) % cpus
					tid := mem.ThreadID(rng.next() % 6)
					if rng.next()%3 != 0 {
						if a := fuzzShape(&rng, span); inSpan(a, span) {
							applyBoth(t, fast, slow, cpu, tid, mem.Batch{a})
						}
					} else {
						r := mem.Range{
							Base: code.Base + mem.Addr(rng.next()%24)*256 + mem.Addr(rng.next()%3)*100,
							Len:  rng.next()%640 + 1,
						}
						fast.TouchCode(cpu, tid, r)
						slow.TouchCode(cpu, tid, r)
					}
					if step%50 == 0 {
						compareState(t, fast, slow, fmt.Sprintf("step %d", step))
					}
				}
				compareState(t, fast, slow, "fetch fuzz")
			})
		}
	}
}
