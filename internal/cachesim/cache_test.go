package cachesim

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/xrand"
)

// tiny returns a small direct-mapped cache: 8 lines of 64 bytes.
func tiny() *Cache {
	return New(Config{Name: "T", Size: 512, LineSize: 64, Assoc: 1, HitCycles: 1})
}

func TestConfigGeometry(t *testing.T) {
	c := Config{Name: "E", Size: 512 * 1024, LineSize: 64, Assoc: 1}
	if c.Lines() != 8192 || c.Sets() != 8192 {
		t.Errorf("geometry: %d lines, %d sets", c.Lines(), c.Sets())
	}
	c.Assoc = 2
	if c.Sets() != 4096 {
		t.Errorf("2-way sets = %d", c.Sets())
	}
}

func TestMissThenHit(t *testing.T) {
	c := tiny()
	if c.Lookup(1, 0x100, false) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(1, 0x100, false, false)
	if !c.Lookup(1, 0x100, false) {
		t.Fatal("miss after insert")
	}
	// Same line, different offset.
	if !c.Lookup(1, 0x13f, false) {
		t.Fatal("miss within the same line")
	}
	// Next line.
	if c.Lookup(1, 0x140, false) {
		t.Fatal("hit on a different line")
	}
	s := c.Stats()
	if s.Refs != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats %+v", s)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := tiny() // 8 sets: addresses 512 bytes apart collide
	c.Insert(1, 0x000, false, false)
	v := c.Insert(2, 0x200, false, false)
	if !v.Valid || v.Line != 0x000 || v.Owner != 1 {
		t.Errorf("victim = %+v, want line 0 owned by t1", v)
	}
	if c.Contains(0x000) {
		t.Error("conflicting line still resident")
	}
	if !c.Contains(0x200) {
		t.Error("new line not resident")
	}
}

func TestTwoWayLRU(t *testing.T) {
	c := New(Config{Name: "T2", Size: 1024, LineSize: 64, Assoc: 2, HitCycles: 1})
	// Set count = 8; lines 0x000, 0x200, 0x400 share set 0.
	c.Insert(1, 0x000, false, false)
	c.Insert(1, 0x200, false, false)
	// Touch 0x000 so 0x200 becomes LRU.
	if !c.Lookup(1, 0x000, false) {
		t.Fatal("expected hit")
	}
	v := c.Insert(1, 0x400, false, false)
	if !v.Valid || v.Line != 0x200 {
		t.Errorf("LRU victim = %+v, want 0x200", v)
	}
	if !c.Contains(0x000) || !c.Contains(0x400) || c.Contains(0x200) {
		t.Error("wrong lines resident after LRU eviction")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := tiny()
	c.Insert(1, 0x000, false, false)
	c.Lookup(1, 0x000, true) // dirty it
	if !c.IsDirty(0x000) {
		t.Fatal("line not dirty after write hit")
	}
	v := c.Insert(1, 0x200, false, false)
	if !v.Dirty {
		t.Error("victim lost its dirty bit")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestInsertDirty(t *testing.T) {
	c := tiny()
	c.Insert(1, 0x000, true, false) // write-allocate of a store
	if !c.IsDirty(0x000) {
		t.Error("write-allocated line not dirty")
	}
}

func TestReinsertRefreshes(t *testing.T) {
	c := tiny()
	c.Insert(1, 0x000, false, false)
	v := c.Insert(2, 0x000, true, false)
	if v.Valid {
		t.Error("reinsertion produced a victim")
	}
	if c.ValidLines() != 1 {
		t.Errorf("valid lines = %d", c.ValidLines())
	}
	if !c.IsDirty(0x000) {
		t.Error("reinsertion with dirty lost the dirty bit")
	}
	if got := c.OwnerFootprint(2); got != 1 {
		t.Errorf("owner not updated: footprint(2) = %d", got)
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Insert(1, 0x000, false, false)
	c.Lookup(1, 0x000, true)
	present, dirty := c.Invalidate(0x000)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v, %v)", present, dirty)
	}
	if c.Contains(0x000) || c.ValidLines() != 0 {
		t.Error("line survived invalidation")
	}
	present, _ = c.Invalidate(0x000)
	if present {
		t.Error("double invalidation reported present")
	}
}

func TestInvalidateSpan(t *testing.T) {
	c := New(Config{Name: "L1", Size: 1024, LineSize: 16, Assoc: 1, HitCycles: 1})
	// Fill four 16-byte lines covering one 64-byte outer line.
	for off := mem.Addr(0); off < 64; off += 16 {
		c.Insert(1, 0x400+off, false, false)
	}
	if got := c.InvalidateSpan(0x400, 64); got != 4 {
		t.Errorf("InvalidateSpan removed %d lines, want 4", got)
	}
	if c.ValidLines() != 0 {
		t.Error("lines survived span invalidation")
	}
	if got := c.InvalidateSpan(0x400, 0); got != 0 {
		t.Error("zero-length span invalidated something")
	}
}

func TestFlush(t *testing.T) {
	c := tiny()
	for i := mem.Addr(0); i < 8; i++ {
		c.Insert(1, i*64, i%2 == 0, false)
	}
	c.Flush()
	if c.ValidLines() != 0 {
		t.Errorf("valid lines after flush = %d", c.ValidLines())
	}
	if c.Stats().Writebacks != 4 {
		t.Errorf("flush writebacks = %d, want 4", c.Stats().Writebacks)
	}
}

func TestSharedFlag(t *testing.T) {
	c := tiny()
	c.Insert(1, 0x000, false, true)
	if !c.IsShared(0x000) {
		t.Error("shared insert lost the flag")
	}
	c.SetShared(0x000, false)
	if c.IsShared(0x000) {
		t.Error("SetShared(false) did not clear")
	}
	c.SetShared(0x000, true)
	if !c.IsShared(0x000) {
		t.Error("SetShared(true) did not set")
	}
	c.SetShared(0x777, true) // absent line: no-op, no panic
}

func TestOwnerFootprint(t *testing.T) {
	c := tiny()
	c.Insert(1, 0x000, false, false)
	c.Insert(1, 0x040, false, false)
	c.Insert(2, 0x080, false, false)
	if c.OwnerFootprint(1) != 2 || c.OwnerFootprint(2) != 1 || c.OwnerFootprint(3) != 0 {
		t.Error("owner footprints wrong")
	}
	// Thread 2 touching thread 1's line takes it over.
	c.Lookup(2, 0x000, false)
	if c.OwnerFootprint(1) != 1 || c.OwnerFootprint(2) != 2 {
		t.Error("ownership transfer on access failed")
	}
}

// TestLineConservation: after any access sequence, the number of valid
// lines equals insertions minus evictions minus invalidations, and never
// exceeds capacity.
func TestLineConservation(t *testing.T) {
	f := func(seed uint64, ops uint16) bool {
		rng := xrand.New(seed)
		c := New(Config{Name: "P", Size: 4096, LineSize: 64, Assoc: 2, HitCycles: 1})
		fills := 0
		for i := 0; i < int(ops); i++ {
			a := mem.Addr(rng.Uint64n(1 << 14))
			switch rng.Intn(3) {
			case 0:
				if !c.Lookup(1, a, rng.Bool(0.3)) {
					c.Insert(1, a, false, false)
					fills++
				}
			case 1:
				c.Insert(1, a, rng.Bool(0.5), false)
				if !c.Contains(a) {
					return false
				}
				fills++ // may be a refresh; corrected below via stats
			case 2:
				c.Invalidate(a)
			}
			if c.ValidLines() > c.Config().Lines() || c.ValidLines() < 0 {
				return false
			}
		}
		// Recount directly and compare with the tracked count.
		count := 0
		c.ForEachValidLine(func(mem.Addr, mem.ThreadID) { count++ })
		return count == c.ValidLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "odd", Size: 1000, LineSize: 64, Assoc: 1},
		{Name: "line", Size: 1024, LineSize: 48, Assoc: 1},
		{Name: "assoc", Size: 1024, LineSize: 64, Assoc: 0},
		{Name: "div", Size: 1024, LineSize: 64, Assoc: 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestLRUMatchesReferenceModel compares the per-set LRU policy against
// a brute-force reference implementation (explicit recency lists) under
// random traffic on a small 4-way cache.
func TestLRUMatchesReferenceModel(t *testing.T) {
	const sets, ways, line = 4, 4, 64
	c := New(Config{Name: "L", Size: sets * ways * line, LineSize: line, Assoc: ways, HitCycles: 1})
	// ref[s] is the recency list of set s, most recent first.
	ref := make([][]mem.Addr, sets)
	rng := xrand.New(5)
	for i := 0; i < 20000; i++ {
		a := mem.Addr(rng.Uint64n(64)) * line // 64 lines over 4 sets
		set := int(uint64(a/line) % sets)
		// Reference model.
		list := ref[set]
		found := -1
		for j, l := range list {
			if l == a {
				found = j
				break
			}
		}
		if found >= 0 {
			list = append(list[:found], list[found+1:]...)
			list = append([]mem.Addr{a}, list...)
		} else {
			if len(list) == ways {
				list = list[:ways-1]
			}
			list = append([]mem.Addr{a}, list...)
		}
		ref[set] = list
		// System under test.
		if !c.Lookup(1, a, false) {
			c.Insert(1, a, false, false)
		}
		// Cross-check residency every few steps.
		if i%500 == 0 {
			for s := range ref {
				for _, l := range ref[s] {
					if !c.Contains(l) {
						t.Fatalf("step %d: reference says %#x resident, cache disagrees", i, uint64(l))
					}
				}
			}
			total := 0
			for s := range ref {
				total += len(ref[s])
			}
			if total != c.ValidLines() {
				t.Fatalf("step %d: reference %d lines, cache %d", i, total, c.ValidLines())
			}
		}
	}
}

// e5000 returns one CPU's cache geometry on the paper's Enterprise
// 5000: a 2-way L1I, a direct-mapped L1D and a direct-mapped E-cache.
func e5000() (l1i, l1d, l2 Config) {
	return Config{Name: "L1I", Size: 16 << 10, LineSize: 32, Assoc: 2, HitCycles: 1},
		Config{Name: "L1D", Size: 16 << 10, LineSize: 16, Assoc: 1, HitCycles: 1},
		Config{Name: "E", Size: 512 << 10, LineSize: 64, Assoc: 1, HitCycles: 6}
}

// TestSlotLayout pins the per-line state: an 8-byte slot, and LRU
// stamps only on the caches that run LRU (associative geometries and a
// cache pinned to the generic path).
func TestSlotLayout(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 8 {
		t.Fatalf("slot is %d bytes, want 8", n)
	}
	l1i, l1d, l2 := e5000()
	h := NewHierarchy(l1i, l1d, l2)
	stamps := func(name string, c *Cache, want bool) {
		t.Helper()
		if got := c.lastUse != nil; got != want || want && len(c.lastUse) != len(c.slots) {
			t.Errorf("%s: %d LRU stamps for %d lines, want stamps=%v", name, len(c.lastUse), len(c.slots), want)
		}
	}
	stamps("L1I (2-way)", h.L1I, true)
	stamps("L1D (direct-mapped)", h.L1D, false)
	stamps("E (direct-mapped)", h.L2, false)
	stamps("shared-llc", NewSharedL2(l2, 2).Cache(), false)
	stamps("shared-assoc:4", NewSharedL2(Topology{Kind: TopoSharedAssoc, Ways: 4}.L2Config(l2), 2).Cache(), true)
	stamps("shared-fa", NewSharedL2(Topology{Kind: TopoSharedFA}.L2Config(l2), 2).Cache(), true)
	g := New(l1d)
	g.useGeneric()
	stamps("L1D pinned generic", g, true)
}

// TestLineKeyGuard drives the packed key to its limit with synthetic
// physical addresses (no simulated memory behind them): the highest
// line the 32-bit key holds round-trips through the slot, and the
// first line past it neither aliases the resident line it wraps onto
// nor fills — its fill panics with the named message.
func TestLineKeyGuard(t *testing.T) {
	_, l1d, _ := e5000()
	reach := mem.Addr(1<<30-1) << 4 // 16-byte lines
	for _, generic := range []bool{false, true} {
		c := New(l1d)
		if generic {
			c.useGeneric()
		}
		top := reach - 16
		c.Insert(1, top, true, false)
		var lines []mem.Addr
		c.ForEachValidLine(func(line mem.Addr, _ mem.ThreadID) { lines = append(lines, line) })
		if len(lines) != 1 || lines[0] != top || !c.IsDirty(top) {
			t.Fatalf("generic=%v: highest line %#x came back as %#x", generic, top, lines)
		}
		if v := c.Insert(2, top-mem.Addr(l1d.Size), false, false); v.Line != top || !v.Dirty || v.Owner != 1 {
			t.Fatalf("generic=%v: victim %+v, want %#x dirty owned by t1", generic, v, top)
		}

		// A line 2^30 lines above a resident one wraps onto its key.
		c.Insert(1, 0x40, false, false)
		alias := 0x40 + mem.Addr(1<<30)<<4
		if c.Lookup(1, alias, false) || c.Contains(alias) {
			t.Fatalf("generic=%v: %#x aliased resident line 0x40", generic, alias)
		}
		for _, a := range []mem.Addr{reach, alias} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "L1D line key overflow") {
						t.Errorf("generic=%v: fill of %#x: panic %q, want a line key overflow", generic, a, msg)
					}
				}()
				c.Insert(1, a, false, false)
			}()
		}
	}
}
