package cachesim

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// The direct-mapped fast lanes (lookupDM, insertDM, the inlined probe in
// Repeat, and Hierarchy.dataDM) must be observationally identical to the
// generic way-scan paths on an Assoc==1 geometry. These tests drive both
// implementations — useGeneric pins a cache to the generic path — with
// the same pseudo-random operation stream and require every observable
// to match: statistics, return values, listener event order, residency,
// dirty/shared/owner state, and classification.

// lcg is a tiny deterministic generator so the differential streams are
// reproducible without seeding the global rand.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 11
}

// eventRec records listener callbacks in order.
type eventRec struct {
	events []string
}

func (e *eventRec) Filled(line mem.Addr, tid mem.ThreadID) {
	e.events = append(e.events, fmt.Sprintf("fill %x by %d", line, tid))
}

func (e *eventRec) Evicted(line mem.Addr, dirty bool) {
	e.events = append(e.events, fmt.Sprintf("evict %x dirty=%v", line, dirty))
}

func dmConfig() Config {
	return Config{Name: "DM", Size: 4096, LineSize: 64, Assoc: 1, HitCycles: 1}
}

// snapshot captures every externally observable piece of cache state.
func snapshot(c *Cache) string {
	var s string
	st := c.Stats()
	s += fmt.Sprintf("stats=%+v valid=%d classify=%+v\n", st, c.ValidLines(), c.ClassifyStats())
	c.ForEachValidLine(func(line mem.Addr, owner mem.ThreadID) {
		s += fmt.Sprintf("line %x owner=%d dirty=%v shared=%v\n",
			line, owner, c.IsDirty(line), c.IsShared(line))
	})
	return s
}

func TestDirectMappedFastLaneDifferential(t *testing.T) {
	fast := New(dmConfig())
	slow := New(dmConfig())
	slow.useGeneric()
	if fast.direct != true || slow.direct != true {
		t.Fatal("both caches should report a direct-mapped geometry")
	}
	fast.EnableClassification()
	slow.EnableClassification()
	fastEv, slowEv := &eventRec{}, &eventRec{}
	fast.SetListener(fastEv)
	slow.SetListener(slowEv)

	rng := lcg(12345)
	const span = 64 * 1024 // 16× the cache: plenty of conflicts
	for step := 0; step < 20000; step++ {
		op := rng.next() % 100
		a := mem.Addr(rng.next() % span)
		tid := mem.ThreadID(rng.next() % 4)
		write := rng.next()%2 == 0
		switch {
		case op < 45: // lookup
			got, want := fast.Lookup(tid, a, write), slow.Lookup(tid, a, write)
			if got != want {
				t.Fatalf("step %d: Lookup(%d, %x, %v) fast=%v generic=%v", step, tid, a, write, got, want)
			}
		case op < 75: // insert
			shared := rng.next()%8 == 0
			v1 := fast.Insert(tid, a, write, shared)
			v2 := slow.Insert(tid, a, write, shared)
			if v1 != v2 {
				t.Fatalf("step %d: Insert(%d, %x, %v, %v) fast=%+v generic=%+v", step, tid, a, write, shared, v1, v2)
			}
		case op < 80: // repeat replay after a priming lookup
			k := int(rng.next()%6) + 1
			hit, hitSlow := fast.Lookup(tid, a, write), slow.Lookup(tid, a, write)
			if hit != hitSlow {
				t.Fatalf("step %d: priming Lookup(%d, %x, %v) fast=%v generic=%v", step, tid, a, write, hit, hitSlow)
			}
			if hit {
				// Resident: the stronger RepeatHit contract applies.
				fast.RepeatHit(tid, a, write, k)
				slow.RepeatHit(tid, a, write, k)
			} else {
				fast.Repeat(tid, a, write, k)
				slow.Repeat(tid, a, write, k)
			}
		case op < 88: // invalidate
			p1, d1 := fast.Invalidate(a)
			p2, d2 := slow.Invalidate(a)
			if p1 != p2 || d1 != d2 {
				t.Fatalf("step %d: Invalidate(%x) fast=(%v,%v) generic=(%v,%v)", step, a, p1, d1, p2, d2)
			}
		case op < 92: // span invalidate
			n1 := fast.InvalidateSpan(a, 256)
			n2 := slow.InvalidateSpan(a, 256)
			if n1 != n2 {
				t.Fatalf("step %d: InvalidateSpan(%x) fast=%d generic=%d", step, a, n1, n2)
			}
		case op < 95:
			fast.ClearDirty(a)
			slow.ClearDirty(a)
		case op < 98:
			sh := rng.next()%2 == 0
			fast.SetShared(a, sh)
			slow.SetShared(a, sh)
		default:
			fast.Flush()
			slow.Flush()
		}
		if fast.Contains(a) != slow.Contains(a) {
			t.Fatalf("step %d: residency of %x diverged", step, a)
		}
	}
	if got, want := snapshot(fast), snapshot(slow); got != want {
		t.Fatalf("final state diverged:\nfast:\n%s\ngeneric:\n%s", got, want)
	}
	if len(fastEv.events) != len(slowEv.events) {
		t.Fatalf("event counts diverged: fast=%d generic=%d", len(fastEv.events), len(slowEv.events))
	}
	for i := range fastEv.events {
		if fastEv.events[i] != slowEv.events[i] {
			t.Fatalf("event %d diverged: fast=%q generic=%q", i, fastEv.events[i], slowEv.events[i])
		}
	}
	if fast.Stats().Refs == 0 || fast.Stats().Evictions == 0 {
		t.Fatal("stream exercised no traffic or no evictions; widen it")
	}
}

// TestDirectMappedInsertVictims pins the Insert return value (victim
// identity, dirtiness, owner) across the two paths with a dedicated
// stream, since the main differential test cannot compare draws made
// inside the case arm.
func TestDirectMappedInsertVictims(t *testing.T) {
	fast := New(dmConfig())
	slow := New(dmConfig())
	slow.useGeneric()
	rng := lcg(99)
	for step := 0; step < 8000; step++ {
		a := mem.Addr(rng.next() % (32 * 1024))
		tid := mem.ThreadID(rng.next() % 3)
		dirty := rng.next()%2 == 0
		shared := rng.next()%8 == 0
		v1 := fast.Insert(tid, a, dirty, shared)
		v2 := slow.Insert(tid, a, dirty, shared)
		if v1 != v2 {
			t.Fatalf("step %d: Insert(%d, %x, %v, %v) victims diverged: fast=%+v generic=%+v",
				step, tid, a, dirty, shared, v1, v2)
		}
	}
	if fast.Stats() != slow.Stats() {
		t.Fatalf("stats diverged: fast=%+v generic=%+v", fast.Stats(), slow.Stats())
	}
}

// TestHierarchyDataDMDifferential drives the fused hierarchy data lane
// against the generic dispatch on the UltraSPARC-like geometry (both
// L1D and L2 direct-mapped) and compares results and per-cache stats.
func TestHierarchyDataDMDifferential(t *testing.T) {
	mk := func() *Hierarchy {
		return NewHierarchy(
			Config{Name: "L1I", Size: 16 << 10, LineSize: 32, Assoc: 2, HitCycles: 1},
			Config{Name: "L1D", Size: 16 << 10, LineSize: 32, Assoc: 1, HitCycles: 1},
			Config{Name: "E", Size: 256 << 10, LineSize: 64, Assoc: 1, HitCycles: 6},
		)
	}
	fast := mk()
	slow := mk()
	slow.L1D.useGeneric()
	slow.L2.useGeneric()
	if !fast.dmData {
		t.Fatal("geometry should enable the data fast lane")
	}

	rng := lcg(2718)
	const span = 2 << 20
	for step := 0; step < 60000; step++ {
		a := mem.Addr(rng.next() % span)
		tid := mem.ThreadID(rng.next() % 4)
		write := rng.next()%3 == 0
		shared := rng.next()%16 == 0
		r1 := fast.Data(tid, a, write, shared)
		r2 := slow.Data(tid, a, write, shared)
		if r1 != r2 {
			t.Fatalf("step %d: Data(%d, %x, %v, %v) fast=%+v generic=%+v", step, tid, a, write, shared, r1, r2)
		}
		if rng.next()%64 == 0 {
			p1, d1 := fast.InvalidateLine(a)
			p2, d2 := slow.InvalidateLine(a)
			if p1 != p2 || d1 != d2 {
				t.Fatalf("step %d: InvalidateLine diverged", step)
			}
		}
	}
	for _, pair := range []struct {
		name string
		f, s *Cache
	}{{"L1I", fast.L1I, slow.L1I}, {"L1D", fast.L1D, slow.L1D}, {"L2", fast.L2, slow.L2}} {
		if pair.f.Stats() != pair.s.Stats() {
			t.Fatalf("%s stats diverged:\nfast:    %+v\ngeneric: %+v", pair.name, pair.f.Stats(), pair.s.Stats())
		}
	}
	if v, ok := fast.CheckInclusion(); !ok {
		t.Fatalf("fast hierarchy violates inclusion at %x", v)
	}
	if fast.L2.Stats().Misses == 0 {
		t.Fatal("stream took no L2 misses; widen it")
	}
}
