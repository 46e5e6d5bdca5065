package cachesim

import "repro/internal/mem"

// Level identifies where in the hierarchy an access was satisfied.
type Level int

// Access outcomes, ordered from fastest to slowest.
const (
	// LevelL1 means the access hit in the first-level cache.
	LevelL1 Level = iota
	// LevelL2 means the access missed in L1 but hit in the external
	// cache (an E-cache reference and hit, in UltraSPARC terms).
	LevelL2
	// LevelMemory means the access missed in both caches (an E-cache
	// reference and miss).
	LevelMemory
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	default:
		return "memory"
	}
}

// Result describes one hierarchy access: the level that satisfied it and
// the L2 victim displaced by the fill, which the machine layer needs for
// coherence bookkeeping and write-back accounting.
type Result struct {
	Level  Level
	Victim Victim // L2 line displaced by a memory fill, if any
}

// Hierarchy models the UltraSPARC-1 memory hierarchy of the paper's
// Table 1: split first-level caches (write-through, non-allocating L1D;
// L1I for instruction fetch) in front of a unified external cache
// (write-back, write-allocate) that maintains inclusion of both L1s.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	// dmData marks the data-path fast lane: both the L1D and the L2 are
	// direct-mapped (the UltraSPARC-1 geometry of every experiment), so
	// Data can call the one-way probes directly without the per-cache
	// dispatch branch.
	dmData bool
	// shared, when non-nil, marks a shared-topology hierarchy: L2 is the
	// one cache shared by every CPU and the data/inst paths route fills
	// and sharer maintenance through it. Config-selected at construction;
	// nil on the private topologies, whose paths are untouched.
	shared *SharedL2
	cpu    int // this hierarchy's CPU index within shared; 0 otherwise
}

// NewHierarchy builds a hierarchy from the three cache configurations.
// The L2 line size must be at least as large as both L1 line sizes for
// inclusion maintenance to be meaningful.
func NewHierarchy(l1i, l1d, l2 Config) *Hierarchy {
	h := &Hierarchy{L1I: New(l1i), L1D: New(l1d), L2: New(l2)}
	if l2.LineSize < l1i.LineSize || l2.LineSize < l1d.LineSize {
		// Invariant: geometry comes from machine.Config presets/Validate.
		panic("cachesim: L2 line must not be smaller than L1 lines")
	}
	h.dmData = h.L1D.direct && h.L2.direct
	return h
}

// NewHierarchyShared builds cpu's view of a shared-L2 topology: private
// split L1s in front of the one shared cache. Data keeps the generic
// per-reference path (dmData false), which folds cross-CPU sharer
// maintenance into dataShared; when the L1D and the shared L2 are both
// one-way (shared-llc), FastData reports true and the machine layer
// sweeps through SweepDM, which keeps the sharer sets itself.
func NewHierarchyShared(l1i, l1d Config, sh *SharedL2, cpu int) *Hierarchy {
	h := &Hierarchy{L1I: New(l1i), L1D: New(l1d), L2: sh.cache, shared: sh, cpu: cpu}
	l2 := sh.cache.Config()
	if l2.LineSize < l1i.LineSize || l2.LineSize < l1d.LineSize {
		// Invariant: geometry comes from machine.Config presets/Validate.
		panic("cachesim: L2 line must not be smaller than L1 lines")
	}
	sh.attach(cpu, h.L1I, h.L1D)
	return h
}

// Data performs one data reference by thread tid at physical address a.
//
// Loads allocate in L1D; stores are write-through and non-allocating in
// L1D (they update a resident L1D line but always proceed to the L2),
// matching the UltraSPARC-1. The L2 is write-allocate and write-back.
// The shared flag is the coherence state the machine wants on a fresh L2
// fill.
func (h *Hierarchy) Data(tid mem.ThreadID, a mem.Addr, write, shared bool) Result {
	if h.dmData && !h.L1D.forceGeneric && !h.L2.forceGeneric {
		return h.dataDM(tid, a, write, shared)
	}
	if h.shared != nil {
		return h.dataShared(tid, a, write)
	}
	// The write-through L1D never holds dirty data, so even a store
	// hit leaves the L1D line clean (the dirty bit lives in the L2).
	if h.L1D.Lookup(tid, a, false) && !write {
		return Result{Level: LevelL1}
	}
	// Loads that miss L1D and all stores reach the E-cache.
	if h.L2.Lookup(tid, a, write) {
		if !write {
			h.fillL1(h.L1D, tid, a)
		}
		return Result{Level: LevelL2}
	}
	victim := h.fillL2(tid, a, write, shared)
	if !write {
		h.fillL1(h.L1D, tid, a)
	}
	return Result{Level: LevelMemory, Victim: victim}
}

// dataDM is Data for the direct-mapped geometry: identical decision
// tree, but the probes go straight to the one-way fast lanes, skipping
// each cache's per-call dispatch branch.
func (h *Hierarchy) dataDM(tid mem.ThreadID, a mem.Addr, write, shared bool) Result {
	if h.L1D.lookupDM(tid, a, false) && !write {
		return Result{Level: LevelL1}
	}
	if h.L2.lookupDM(tid, a, write) {
		if !write {
			h.L1D.insertDM(tid, a, false, false)
		}
		return Result{Level: LevelL2}
	}
	victim := h.fillL2(tid, a, write, shared)
	if !write {
		h.L1D.insertDM(tid, a, false, false)
	}
	return Result{Level: LevelMemory, Victim: victim}
}

// dataShared is Data for the shared-L2 topologies: the same decision
// tree, with sharer-set maintenance folded into the L2 outcomes. A read
// hit joins the sharer set (marking the line shared when other CPUs
// hold it); a write hit invalidates the other sharers' L1 copies and
// leaves the writer exclusive; a fill routes through SharedL2.fill so
// inclusion invalidation reaches every sharer's L1s. The machine's
// coherence fill hint is irrelevant here — sharing state lives in the
// one cache.
func (h *Hierarchy) dataShared(tid mem.ThreadID, a mem.Addr, write bool) Result {
	if h.L1D.Lookup(tid, a, false) && !write {
		return Result{Level: LevelL1}
	}
	if h.L2.Lookup(tid, a, write) {
		if write {
			h.shared.storeBy(h.cpu, a)
		} else {
			h.shared.readBy(h.cpu, a)
			h.fillL1(h.L1D, tid, a)
		}
		return Result{Level: LevelL2}
	}
	victim := h.shared.fill(h.cpu, tid, a, write)
	if !write {
		h.fillL1(h.L1D, tid, a)
	}
	return Result{Level: LevelMemory, Victim: victim}
}

// Inst performs one instruction fetch by thread tid at physical address
// a. Instruction fetches allocate in both L1I and the unified L2.
func (h *Hierarchy) Inst(tid mem.ThreadID, a mem.Addr, shared bool) Result {
	if h.shared != nil {
		return h.instShared(tid, a)
	}
	if h.L1I.Lookup(tid, a, false) {
		return Result{Level: LevelL1}
	}
	if h.L2.Lookup(tid, a, false) {
		h.fillL1(h.L1I, tid, a)
		return Result{Level: LevelL2}
	}
	victim := h.fillL2(tid, a, false, shared)
	h.fillL1(h.L1I, tid, a)
	return Result{Level: LevelMemory, Victim: victim}
}

// instShared is Inst for the shared-L2 topologies; fetches are reads,
// so hits join the sharer set and fills route through the shared cache.
func (h *Hierarchy) instShared(tid mem.ThreadID, a mem.Addr) Result {
	if h.L1I.Lookup(tid, a, false) {
		return Result{Level: LevelL1}
	}
	if h.L2.Lookup(tid, a, false) {
		h.shared.readBy(h.cpu, a)
		h.fillL1(h.L1I, tid, a)
		return Result{Level: LevelL2}
	}
	victim := h.shared.fill(h.cpu, tid, a, false)
	h.fillL1(h.L1I, tid, a)
	return Result{Level: LevelMemory, Victim: victim}
}

// fillL2 inserts the line for a into the L2 and maintains inclusion: the
// span covered by a displaced L2 line is invalidated from both L1s.
func (h *Hierarchy) fillL2(tid mem.ThreadID, a mem.Addr, dirty, shared bool) Victim {
	victim := h.L2.Insert(tid, a, dirty, shared)
	if victim.Valid {
		span := uint64(h.L2.Config().LineSize)
		h.L1I.InvalidateSpan(victim.Line, span)
		h.L1D.InvalidateSpan(victim.Line, span)
	}
	return victim
}

// fillL1 inserts into an L1. L1 victims need no inclusion work and, for
// the write-through L1D, no write-back either (a victim can only be
// dirty through a write hit, which already updated the L2).
func (h *Hierarchy) fillL1(l1 *Cache, tid mem.ThreadID, a mem.Addr) {
	l1.Insert(tid, a, false, false)
}

// InvalidateLine removes the L2 line containing a and its covered spans
// from both L1s, returning whether the L2 copy was present and dirty.
// The machine uses it to implement write-invalidate coherence.
func (h *Hierarchy) InvalidateLine(a mem.Addr) (present, dirty bool) {
	if h.shared != nil {
		// The shared backend owns the sharer set, so the invalidation
		// reaches every CPU's L1s, not just this hierarchy's.
		return h.shared.InvalidateLine(a)
	}
	line := h.L2.LineOf(a)
	present, dirty = h.L2.Invalidate(line)
	if present {
		span := uint64(h.L2.Config().LineSize)
		h.L1I.InvalidateSpan(line, span)
		h.L1D.InvalidateSpan(line, span)
	}
	return present, dirty
}

// Flush empties all three caches. On a shared topology the L2 flush
// goes through the shared backend (clearing sharer sets); it is
// idempotent, so the machine may flush every CPU's hierarchy in turn.
func (h *Hierarchy) Flush() {
	h.L1I.Flush()
	h.L1D.Flush()
	if h.shared != nil {
		h.shared.Flush()
		return
	}
	h.L2.Flush()
}

// CheckInclusion verifies that every valid L1 line is covered by a valid
// L2 line, returning the first violating address found (ok=false) or
// ok=true. It is an O(cache size) diagnostic for tests.
func (h *Hierarchy) CheckInclusion() (violation mem.Addr, ok bool) {
	for _, l1 := range []*Cache{h.L1I, h.L1D} {
		for _, s := range l1.slots {
			if s.key == 0 {
				continue
			}
			if line := l1.lineOf(s.key); !h.L2.Contains(line) {
				return line, false
			}
		}
	}
	return 0, true
}
