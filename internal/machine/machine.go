// Package machine simulates the hardware platforms of the paper's
// evaluation: a single-processor UltraSPARC-1 workstation and an
// Enterprise-5000-class SMP. Each simulated CPU owns an UltraSPARC-style
// cache hierarchy (internal/cachesim), a performance monitoring unit
// (internal/perfctr) and a cycle clock; the machine owns the shared
// virtual address space (internal/vm) and a write-invalidate coherence
// directory across the per-CPU external caches.
//
// The machine is the substrate substitution for the paper's hardware
// (see DESIGN.md §2): everything the paper's runtime observes —
// per-interval E-cache miss counts from the PICs, cycle costs of hits,
// clean misses and dirty-remote misses, and scheduling overhead — is
// produced here deterministically.
package machine

import (
	"fmt"
	"math/bits"

	"repro/internal/cachesim"
	"repro/internal/mem"
	"repro/internal/perfctr"
	"repro/internal/vm"
)

// Config describes a simulated platform.
type Config struct {
	// Name labels the platform in reports ("Ultra-1", "E5000").
	Name string
	// CPUs is the processor count (1..256).
	CPUs int
	// L1I, L1D, L2 are the cache geometries. L1s are always per-CPU;
	// the L2 is per-CPU on the private topology and one machine-wide
	// cache on the shared topologies (whose associativity Topology may
	// rewrite — see cachesim.Topology.L2Config).
	L1I, L1D, L2 cachesim.Config
	// Topology selects the cache organisation. The zero value is the
	// paper's private per-CPU direct-mapped hierarchy with a
	// write-invalidate directory; the shared variants give every CPU
	// one L2 and resolve coherence in-cache (see internal/cachesim's
	// topology layer).
	Topology cachesim.Topology
	// MissCycles is the memory latency of an E-cache miss whose line is
	// not dirty in another processor's cache.
	MissCycles int
	// MissCyclesRemote is the latency when the line is dirty in another
	// processor's cache (80 vs 50 cycles on the Enterprise 5000). For a
	// uniprocessor it is never used.
	MissCyclesRemote int
	// CtxSwitchCycles is the basic thread context switch cost (the
	// paper reports on the order of 100 instructions for Active
	// Threads).
	CtxSwitchCycles int
	// PageSize and PagePolicy configure virtual-to-physical mapping.
	PageSize   uint64
	PagePolicy vm.Policy
	// TrackFootprints attaches a footprint tracker to every CPU's L2
	// (model-evaluation experiments only; it costs time per fill).
	TrackFootprints bool
	// TLBEntries, when nonzero, models a per-CPU direct-mapped data
	// TLB of that many entries (the UltraSPARC-1 dTLB has 64); each
	// miss costs TLBMissCycles. Zero models a perfect TLB, the
	// default, so the paper-calibrated cycle counts are unchanged
	// unless a study opts in.
	TLBEntries int
	// TLBMissCycles is the software-refill cost of a TLB miss
	// (default 28 when TLBEntries is set).
	TLBMissCycles int
	// ClassifyMisses labels every E-cache miss with Hill's three C's
	// (compulsory/capacity/conflict) against a fully-associative
	// shadow. Diagnostic runs only; it costs a map operation per
	// reference.
	ClassifyMisses bool
	// Seed fixes all machine-level pseudo-randomness (page placement).
	Seed uint64
}

// UltraSPARC1 returns the paper's Table 1 uniprocessor: 16KB 2-way L1I
// (32B lines), 16KB direct-mapped L1D (16B lines), 512KB direct-mapped
// unified E-cache (64B lines, 3-cycle hit, 42-cycle miss), 8KB pages
// with careful mapping.
func UltraSPARC1() Config {
	return Config{
		Name:             "Ultra-1",
		CPUs:             1,
		L1I:              cachesim.Config{Name: "L1I", Size: 16 * 1024, LineSize: 32, Assoc: 2, HitCycles: 1},
		L1D:              cachesim.Config{Name: "L1D", Size: 16 * 1024, LineSize: 16, Assoc: 1, HitCycles: 1},
		L2:               cachesim.Config{Name: "E", Size: 512 * 1024, LineSize: 64, Assoc: 1, HitCycles: 3},
		MissCycles:       42,
		MissCyclesRemote: 42,
		CtxSwitchCycles:  100,
		PageSize:         8192,
		PagePolicy:       vm.Careful,
		Seed:             1,
	}
}

// Enterprise5000 returns the paper's 8-processor (or n-processor) SMP:
// the same per-CPU hierarchy as the Ultra-1 but with 50-cycle clean
// misses and 80-cycle misses to lines dirty in another processor's
// cache, connected by a write-invalidate Gigaplane-style interconnect.
func Enterprise5000(cpus int) Config {
	c := UltraSPARC1()
	c.Name = "E5000"
	c.CPUs = cpus
	c.MissCycles = 50
	c.MissCyclesRemote = 80
	return c
}

// Validate reports whether the configuration describes a buildable
// machine. User-facing layers (the public Config, cmd/atsim) call this
// before New so a bad geometry surfaces as an error, not a panic.
func (c Config) Validate() error {
	if c.CPUs < 1 || c.CPUs > maxCPUs {
		return fmt.Errorf("machine: %d CPUs outside [1,%d] (directory sharer mask is %d bits wide)", c.CPUs, maxCPUs, maxCPUs)
	}
	if c.MissCycles <= 0 || c.MissCyclesRemote <= 0 {
		return fmt.Errorf("machine: miss penalties must be positive")
	}
	if !mem.IsPow2(c.PageSize) || c.PageSize < uint64(c.L2.LineSize) {
		return fmt.Errorf("machine: page size must be a power of two not smaller than the L2 line")
	}
	if c.TLBEntries != 0 && !mem.IsPow2(uint64(c.TLBEntries)) {
		return fmt.Errorf("machine: TLB entries must be a power of two")
	}
	if err := c.Topology.Validate(c.L2); err != nil {
		return err
	}
	return nil
}

func (c Config) validate() {
	if err := c.Validate(); err != nil {
		// Invariant at this layer: callers that accept user input
		// (threadlocality.New, cmd/atsim) run Validate first; internal
		// experiment code constructs configs from vetted presets.
		panic(err)
	}
}

// CPU is one simulated processor.
type CPU struct {
	// ID is the processor number, 0-based.
	ID int
	// Hier is the processor's private cache hierarchy.
	Hier *cachesim.Hierarchy
	// PMU is the performance monitoring unit the runtime reads at
	// context switches.
	PMU *perfctr.Unit

	// Cycles is the processor's cycle clock.
	Cycles uint64
	// Instrs counts instructions executed.
	Instrs uint64
	// ERefs, EHits, EMisses are 64-bit shadow totals of the E-cache
	// events (the runtime uses these for m(t); the 32-bit PICs wrap).
	ERefs, EHits, EMisses uint64
	// Tracker observes per-thread footprints in this CPU's E-cache
	// when Config.TrackFootprints is set; nil otherwise.
	Tracker *cachesim.Tracker
	// TLBMisses counts data-TLB misses (with Config.TLBEntries set).
	TLBMisses uint64
	// tlb is the per-CPU direct-mapped TLB tag array (vpage+1; 0 is
	// empty).
	tlb []uint64
}

// maxCPUs is the largest processor count the coherence directory can
// track: a cpuMask holds one bit per CPU.
const maxCPUs = 256

// cpuMask is a set of CPU IDs, sized for the directory's 256-CPU cap.
// The zero value is the empty set.
type cpuMask [4]uint64

func (m *cpuMask) set(i int)      { m[uint(i)>>6] |= 1 << (uint(i) & 63) }
func (m *cpuMask) clear(i int)    { m[uint(i)>>6] &^= 1 << (uint(i) & 63) }
func (m *cpuMask) has(i int) bool { return m[uint(i)>>6]&(1<<(uint(i)&63)) != 0 }
func (m *cpuMask) empty() bool    { return m[0]|m[1]|m[2]|m[3] == 0 }

// count returns the number of members.
func (m *cpuMask) count() int {
	return bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]) +
		bits.OnesCount64(m[2]) + bits.OnesCount64(m[3])
}

// covers reports whether every member of o is also in m.
func (m *cpuMask) covers(o *cpuMask) bool {
	return o[0]&^m[0] == 0 && o[1]&^m[1] == 0 && o[2]&^m[2] == 0 && o[3]&^m[3] == 0
}

// minus returns m with o's members removed.
func (m cpuMask) minus(o *cpuMask) cpuMask {
	return cpuMask{m[0] &^ o[0], m[1] &^ o[1], m[2] &^ o[2], m[3] &^ o[3]}
}

// forEach calls fn for every member in ascending order.
func (m *cpuMask) forEach(fn func(i int)) {
	for w, word := range m {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// String renders the set as a hex mask (the historic single-word
// diagnostic format, extended with word separators past 64 CPUs).
func (m cpuMask) String() string {
	if m[1]|m[2]|m[3] == 0 {
		return fmt.Sprintf("%#x", m[0])
	}
	return fmt.Sprintf("%#x:%#x:%#x:%#x", m[3], m[2], m[1], m[0])
}

// dirEntry is a materialized view of one line's coherence directory
// state — which CPUs cache it and which, if any, holds it dirty — used
// by the cold inspection paths (forEach, CheckCoherence). An entry with
// no sharers is equivalent to an absent one and keeps dirtyOwner = -1.
type dirEntry struct {
	sharers    cpuMask
	dirtyOwner int16 // -1 when clean everywhere
}

// directory is the coherence directory: a two-level table indexed by
// physical page, then by line within the page. The page mapper
// synthesizes frames densely (color + colors·ordinal), so a paged array
// stays compact while replacing the former hash map — directory lookups
// sit on the store hot path (setDirty per write hit), where two indexed
// loads beat hashing by a wide margin.
//
// Storage is sized to the machine, not the 256-CPU cap: each line's
// sharer set is nw = ceil(CPUs/64) words, so an 8-CPU machine pays one
// word per line. Dirty owners are stored as cpuID+1 (0 = none), which
// makes a freshly allocated page valid all-zero — no initialization
// pass over new pages.
type directory struct {
	pageShift uint
	pageMask  uint64
	lineShift uint
	nw        int        // sharer-mask words per entry
	words     [][]uint64 // per page: entries × nw sharer words
	owners    [][]int16  // per page: entries × (dirty owner + 1)
}

func newDirectory(pageShift uint, pageMask uint64, l2LineSize uint64, ncpu int) *directory {
	return &directory{
		pageShift: pageShift,
		pageMask:  pageMask,
		lineShift: mem.Log2(l2LineSize),
		nw:        (ncpu + 63) / 64,
	}
}

// entry returns the line's sharer words and dirty-owner slot,
// allocating the page on demand. The slices stay valid until the next
// entry() call (peek never moves storage).
func (d *directory) entry(line mem.Addr) ([]uint64, *int16) {
	p := uint64(line) >> d.pageShift
	if p >= uint64(len(d.words)) {
		grownW := make([][]uint64, p+1+p/2)
		copy(grownW, d.words)
		d.words = grownW
		grownO := make([][]int16, p+1+p/2)
		copy(grownO, d.owners)
		d.owners = grownO
	}
	w := d.words[p]
	if w == nil {
		n := int((d.pageMask + 1) >> d.lineShift)
		w = make([]uint64, n*d.nw)
		d.words[p] = w
		d.owners[p] = make([]int16, n)
	}
	i := int((uint64(line) & d.pageMask) >> d.lineShift)
	return w[i*d.nw : (i+1)*d.nw : (i+1)*d.nw], &d.owners[p][i]
}

// peek returns the line's sharer words and owner slot without
// allocating, or (nil, nil) when the page has never held directory
// state.
func (d *directory) peek(line mem.Addr) ([]uint64, *int16) {
	p := uint64(line) >> d.pageShift
	if p >= uint64(len(d.words)) || d.words[p] == nil {
		return nil, nil
	}
	i := int((uint64(line) & d.pageMask) >> d.lineShift)
	return d.words[p][i*d.nw : (i+1)*d.nw : (i+1)*d.nw], &d.owners[p][i]
}

// maskEmpty reports whether no sharer bit is set.
func maskEmpty(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

// lookup materializes the line's entry for the cold inspection paths,
// reporting false when the line has no directory state.
func (d *directory) lookup(line mem.Addr) (dirEntry, bool) {
	w, o := d.peek(line)
	if w == nil {
		return dirEntry{dirtyOwner: -1}, false
	}
	var e dirEntry
	copy(e.sharers[:], w)
	e.dirtyOwner = *o - 1
	return e, true
}

// forEach visits every entry with a non-empty sharer set.
func (d *directory) forEach(fn func(line mem.Addr, e dirEntry)) {
	epp := int((d.pageMask + 1) >> d.lineShift)
	for p, w := range d.words {
		if w == nil {
			continue
		}
		for i := 0; i < epp; i++ {
			var e dirEntry
			empty := true
			for k := 0; k < d.nw; k++ {
				e.sharers[k] = w[i*d.nw+k]
				if e.sharers[k] != 0 {
					empty = false
				}
			}
			if empty {
				continue
			}
			e.dirtyOwner = d.owners[p][i] - 1
			line := mem.Addr(uint64(p)<<d.pageShift | uint64(i)<<d.lineShift)
			fn(line, e)
		}
	}
}

// reset drops every entry but keeps the allocated pages for reuse.
func (d *directory) reset() {
	for _, w := range d.words {
		for i := range w {
			w[i] = 0
		}
	}
	for _, o := range d.owners {
		for i := range o {
			o[i] = 0
		}
	}
}

// Machine is a configured simulated platform.
type Machine struct {
	cfg    Config
	cpus   []*CPU
	mapper *vm.Mapper
	dir    *directory
	// shared is the machine-wide L2 on the shared topologies; nil on
	// the private default. Exactly one of dir (private, CPUs > 1) and
	// shared is non-nil on a multiprocessor — the shared cache resolves
	// coherence in-cache, so it needs no directory.
	shared *cachesim.SharedL2

	// Tiny software structure memoizing recent translations so that
	// the per-reference fast path avoids the page-table map.
	tlb [tlbEntries]tlbEntry

	// MissHook, when non-nil, observes every data E-cache miss with
	// the accessing thread and virtual address. The runtime uses it to
	// feed the sharing-inference monitor (the software Cache Miss
	// Lookaside buffer); keep the hook O(1).
	MissHook func(tid mem.ThreadID, va mem.Addr)

	// Bump allocator for the simulated virtual address space.
	allocNext mem.Addr

	// env is the reusable machine-to-cachesim adapter for the fused
	// sweep path (see sweepEnv); kept on the Machine so taking its
	// address never allocates.
	env sweepEnv

	// noFastApply disables the fused run path and TouchCode's fetch
	// lane so the differential tests can drive the per-reference
	// reference implementation on the same geometry and compare.
	// Test-only; never set outside this package's tests.
	noFastApply bool

	l2LineSize  uint64
	l1dLineSize uint64
	// pageShift/pageMask are the shift-and-mask form of the (power of
	// two) page size, so the per-reference translation fast path never
	// pays a hardware divide.
	pageShift uint
	pageMask  uint64
}

const tlbEntries = 1024

// tlbEntry keeps a translation's tag and value adjacent so a TLB hit
// touches a single cache line.
type tlbEntry struct {
	tag uint64   // vpage+1 (0 = empty)
	val mem.Addr // physical base minus page offset
}

// allocBase leaves the low addresses unused so that address 0 stays a
// sentinel and tiny constants never alias allocated state.
const allocBase mem.Addr = 1 << 20

// New constructs a machine.
func New(cfg Config) *Machine {
	cfg.validate()
	m := &Machine{
		cfg:         cfg,
		mapper:      vm.New(cfg.PagePolicy, cfg.PageSize, uint64(cfg.L2.Size), cfg.Seed),
		allocNext:   allocBase,
		l2LineSize:  uint64(cfg.L2.LineSize),
		l1dLineSize: uint64(cfg.L1D.LineSize),
		pageShift:   mem.Log2(cfg.PageSize),
		pageMask:    cfg.PageSize - 1,
	}
	m.env.m = m
	if cfg.Topology.Shared() {
		m.shared = cachesim.NewSharedL2(cfg.Topology.L2Config(cfg.L2), cfg.CPUs)
		if cfg.ClassifyMisses {
			m.shared.Cache().EnableClassification()
		}
	} else if cfg.CPUs > 1 {
		m.dir = newDirectory(m.pageShift, m.pageMask, m.l2LineSize, cfg.CPUs)
	}
	// One tracker observes the one shared cache; every CPU aliases it so
	// Footprint works regardless of the CPU asked.
	var sharedTracker *cachesim.Tracker
	if m.shared != nil && cfg.TrackFootprints {
		sharedTracker = cachesim.NewTracker(m.l2LineSize, cfg.PageSize)
		m.shared.Cache().SetListener(sharedTracker)
	}
	for i := 0; i < cfg.CPUs; i++ {
		cpu := &CPU{
			ID:  i,
			PMU: perfctr.NewUnit(perfctr.DefaultPCR()),
		}
		if m.shared != nil {
			cpu.Hier = cachesim.NewHierarchyShared(cfg.L1I, cfg.L1D, m.shared, i)
			cpu.Tracker = sharedTracker
		} else {
			cpu.Hier = cachesim.NewHierarchy(cfg.L1I, cfg.L1D, cfg.L2)
			if cfg.TrackFootprints {
				cpu.Tracker = cachesim.NewTracker(m.l2LineSize, cfg.PageSize)
				cpu.Hier.L2.SetListener(cpu.Tracker)
			}
			if cfg.ClassifyMisses {
				cpu.Hier.L2.EnableClassification()
			}
		}
		if cfg.TLBEntries > 0 {
			cpu.tlb = make([]uint64, cfg.TLBEntries)
			if m.cfg.TLBMissCycles == 0 {
				m.cfg.TLBMissCycles = 28
			}
		}
		m.cpus = append(m.cpus, cpu)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NCPU returns the processor count.
func (m *Machine) NCPU() int { return m.cfg.CPUs }

// CPU returns processor i.
func (m *Machine) CPU(i int) *CPU { return m.cpus[i] }

// Mapper exposes the page mapper (for experiments that need physical
// addresses, e.g. footprint registration).
func (m *Machine) Mapper() *vm.Mapper { return m.mapper }

// Alloc reserves size bytes of fresh virtual address space aligned to
// align (a power of two; 0 means line alignment). Allocations are
// eternal — the simulation never frees address space, mirroring the
// paper's measurement windows.
func (m *Machine) Alloc(size uint64, align uint64) mem.Range {
	if align == 0 {
		align = m.l2LineSize
	}
	if !mem.IsPow2(align) {
		// Invariant: the engine validates Alloc alignment (user-reachable)
		// before forwarding; direct callers are internal code.
		panic(fmt.Sprintf("machine: Alloc alignment %d not a power of two", align))
	}
	base := (uint64(m.allocNext) + align - 1) &^ (align - 1)
	m.allocNext = mem.Addr(base + size)
	return mem.Range{Base: mem.Addr(base), Len: size}
}

// AllocPages reserves size bytes rounded up to whole pages, page
// aligned. Used for thread state regions that footprint trackers watch.
func (m *Machine) AllocPages(size uint64) mem.Range {
	ps := m.cfg.PageSize
	r := m.Alloc((size+ps-1)&^(ps-1), ps)
	return r
}

// translate maps a virtual address through the TLB fast path. The hit
// path is small enough to inline into dataRef; misses take the outlined
// page-table walk.
func (m *Machine) translate(v mem.Addr) mem.Addr {
	if pa, ok := m.tlbLookup(v); ok {
		return pa
	}
	return m.translateMiss(v)
}

// tlbLookup is the TLB hit path alone: small enough to inline into the
// per-reference loops, so a hit costs one predicted branch and one
// cache-line load with no call.
func (m *Machine) tlbLookup(v mem.Addr) (mem.Addr, bool) {
	vpage := uint64(v) >> m.pageShift
	e := &m.tlb[vpage&(tlbEntries-1)]
	if e.tag != vpage+1 {
		return 0, false
	}
	return e.val + mem.Addr(uint64(v)&m.pageMask), true
}

// translateMiss walks the page table and refills the TLB entry.
func (m *Machine) translateMiss(v mem.Addr) mem.Addr {
	vpage := uint64(v) >> m.pageShift
	p := m.mapper.Translate(v)
	m.tlb[vpage&(tlbEntries-1)] = tlbEntry{
		tag: vpage + 1,
		val: p - mem.Addr(uint64(v)&m.pageMask),
	}
	return p
}

// Apply performs a batch of data references by thread tid on the given
// CPU, advancing its clock, instruction count, counters and caches. It
// returns the number of E-cache misses the batch took (the same
// information the PICs accumulate, returned for convenience).
func (m *Machine) Apply(cpuID int, tid mem.ThreadID, batch mem.Batch) uint64 {
	cpu := m.cpus[cpuID]
	startMisses := cpu.EMisses
	fast := !m.noFastApply && cpu.Hier.FastData()
	for _, a := range batch {
		base := a.Base
		if fast && a.Count > 0 && (a.Stride > 0 || a.Count == 1) {
			// On the direct-mapped geometry any forward-strided access
			// or single reference folds into one fused hierarchy sweep
			// (see applySweep): small strides batch into same-line
			// runs, strides at or beyond the L1D line degenerate to
			// one probe per reference, and straddles probe their two
			// endpoint lines — all event-for-event identical to the
			// loops below.
			m.applySweep(cpu, tid, a)
		} else if a.Count > 1 && a.Stride > 0 && uint64(a.Stride) < m.l1dLineSize {
			// Small-stride accesses revisit the same L1D line several
			// times in a row; batch each same-line run into one probe
			// plus replayed hits (see applyRuns).
			m.applyRuns(cpu, tid, a)
		} else {
			for i := int32(0); i < a.Count; i++ {
				va := base + mem.Addr(int64(i)*int64(a.Stride))
				m.dataRef(cpu, tid, va, a.Write)
				// A reference straddling an L1D line boundary costs a
				// second probe (rare: unaligned or large references).
				if uint64(va)&(m.l1dLineSize-1)+uint64(a.Size) > m.l1dLineSize {
					m.dataRef(cpu, tid, va+mem.Addr(a.Size-1), a.Write)
				}
			}
		}
		// One instruction per reference; the PIC accumulation is
		// additive mod 2^32, so batching the whole access here is
		// event-for-event identical to recording inside the loop.
		if a.Count > 0 {
			cpu.Instrs += uint64(a.Count)
			cpu.PMU.Record(perfctr.EventInstructions, uint64(a.Count))
		}
	}
	return cpu.EMisses - startMisses
}

// applyRuns issues a small-stride access as same-line runs: the first
// reference of each L1D line probes the full hierarchy, and the run's
// remaining references are replayed arithmetically, because their
// outcome is fully determined once the first reference completes:
//
//   - Loads allocate in L1D whichever level satisfies them, so repeat
//     loads are L1D hits: no PMU events, just the hit statistics,
//     ownership and the hit-cycle charge.
//   - Stores are non-allocating in the write-through L1D and
//     write-allocate in the L2, so across a store run the L1D outcome
//     is frozen (hit if the line was already resident, miss otherwise)
//     and every repeat is an L2 hit on the now-dirty line. The repeat
//     coherence check is a no-op (the first store already cleared the
//     shared state) and setDirty is idempotent, so one call covers the
//     run.
//
// Repeat references are also machine-TLB hits (same page, entry
// installed by the first reference) and per-CPU-TLB no-ops. The golden
// experiment fingerprints pin this path counter-for-counter against
// the per-reference loop.
func (m *Machine) applyRuns(cpu *CPU, tid mem.ThreadID, a mem.Access) {
	ls := m.l1dLineSize
	stride := uint64(a.Stride)
	count := int(a.Count)
	size := uint64(a.Size)
	if size == 0 {
		// A zero-size reference touches just its base byte's line; the
		// run arithmetic below treats it as one byte.
		size = 1
	}
	// Traces overwhelmingly walk with power-of-two strides; turn the
	// per-run division into a shift for them.
	strideShift := -1
	if stride&(stride-1) == 0 {
		strideShift = bits.TrailingZeros64(stride)
	}
	for i := 0; i < count; {
		va := a.Base + mem.Addr(uint64(i)*stride)
		off := uint64(va) & (ls - 1)
		if off+uint64(a.Size) > ls {
			// Straddling reference: probe both lines, advance one.
			m.dataRef(cpu, tid, va, a.Write)
			m.dataRef(cpu, tid, va+mem.Addr(a.Size-1), a.Write)
			i++
			continue
		}
		// Run length: references i..i+k-1 stay on va's line without
		// straddling.
		var k int
		if strideShift >= 0 {
			k = int((ls-size-off)>>strideShift) + 1
		} else {
			k = int((ls-size-off)/stride) + 1
		}
		if k > count-i {
			k = count - i
		}
		m.dataRef(cpu, tid, va, a.Write)
		if k > 1 {
			pa, ok := m.tlbLookup(va)
			if !ok {
				pa = m.translateMiss(va)
			}
			m.repeatRefs(cpu, tid, pa, a.Write, k-1)
		}
		i += k
	}
}

// sweepEnv adapts the Machine to cachesim.SweepEnv for the fused
// sweep path: translation, coherence and miss hooks called back from
// inside the cachesim loop. One value lives on the Machine and is
// re-pointed per Apply call, so taking the interface never allocates.
type sweepEnv struct {
	m   *Machine
	cpu *CPU
	tid mem.ThreadID
}

// TranslatePage charges the modelled per-CPU TLB once for va's page
// (the charge is idempotent for the page's later references, so one
// probe is event-identical to the per-reference path's) and returns
// the translation.
func (s *sweepEnv) TranslatePage(va mem.Addr) mem.Addr {
	m := s.m
	m.tlbProbe(s.cpu, va)
	pa, ok := m.tlbLookup(va)
	if !ok {
		pa = m.translateMiss(va)
	}
	return pa
}

// LineMiss runs the directory side of an L2 miss — fill, victim
// drop — and the miss hook, reporting the remote-dirty penalty class.
// A shared-topology machine has no directory (its sweep keeps the
// shared L2's sharer sets itself), so only the hook runs.
func (s *sweepEnv) LineMiss(va, line mem.Addr, write bool, victim cachesim.Victim) bool {
	m := s.m
	remote := false
	if m.dir != nil {
		remote = m.fill(line, s.cpu, write)
		if victim.Valid {
			m.dropSharer(victim.Line, s.cpu.ID)
		}
	}
	if m.MissHook != nil {
		m.MissHook(s.tid, va)
	}
	return remote
}

// SharedStore invalidates the other copies of a line the local CPU
// just stored to (the sweep already cleared the local shared mark).
func (s *sweepEnv) SharedStore(line mem.Addr) { s.m.invalidateOthers(line, s.cpu.ID) }

// DirtyStore records the local CPU as the line's dirty owner.
func (s *sweepEnv) DirtyStore(line mem.Addr) { s.m.setDirty(line, s.cpu.ID) }

// applySweep is applyRuns for the direct-mapped geometry: the whole
// access runs as one fused cachesim sweep (see cachesim.SweepDM), and
// the aggregate outcome converts to cycles, shadow counters and PIC
// events in one batch — every charge is additive, so the batch total
// is event-for-event identical to the per-reference loop, which the
// differential tests in fastapply_test.go pin.
func (m *Machine) applySweep(cpu *CPU, tid mem.ThreadID, a mem.Access) {
	m.env.cpu = cpu
	m.env.tid = tid
	out := cpu.Hier.SweepDM(&m.env, tid, a, m.pageShift, m.dir != nil)
	misses := out.CleanMisses + out.RemoteMisses
	eRefs := out.L2HitRefs + misses
	cpu.Cycles += out.L1Refs*uint64(m.cfg.L1D.HitCycles) +
		out.L2HitRefs*uint64(m.cfg.L2.HitCycles) +
		out.CleanMisses*uint64(m.cfg.MissCycles) +
		out.RemoteMisses*uint64(m.cfg.MissCyclesRemote)
	cpu.ERefs += eRefs
	cpu.EHits += out.L2HitRefs
	cpu.EMisses += misses
	if eRefs > 0 {
		cpu.PMU.Record(perfctr.EventECacheRefs, eRefs)
	}
	if out.L2HitRefs > 0 {
		cpu.PMU.Record(perfctr.EventECacheHits, out.L2HitRefs)
	}
}

// repeatRefs applies the bookkeeping of k further same-line references
// following a completed first reference (see applyRuns for why their
// outcome is fixed).
func (m *Machine) repeatRefs(cpu *CPU, tid mem.ThreadID, pa mem.Addr, write bool, k int) {
	if !write {
		// Loads allocate at whichever level satisfied the first
		// reference, so the line is L1D-resident for every repeat.
		cpu.Hier.L1D.RepeatHit(tid, pa, false, k)
		cpu.Cycles += uint64(k) * uint64(m.cfg.L1D.HitCycles)
		return
	}
	// Data probes the L1D with write=false even for stores (the dirty
	// bit lives in the L2); the L1D replay hits or misses per the
	// frozen residency (stores do not allocate there, so the outcome
	// must be re-probed), and every repeat is a guaranteed L2 hit on
	// the now-dirty line.
	cpu.Hier.L1D.Repeat(tid, pa, false, k)
	cpu.Hier.L2.RepeatHit(tid, pa, true, k)
	cpu.Cycles += uint64(k) * uint64(m.cfg.L2.HitCycles)
	cpu.ERefs += uint64(k)
	cpu.EHits += uint64(k)
	cpu.PMU.Record(perfctr.EventECacheRefs, uint64(k))
	cpu.PMU.Record(perfctr.EventECacheHits, uint64(k))
	if m.dir != nil {
		m.setDirty(mem.LineAddr(pa, m.l2LineSize), cpu.ID)
	}
}

// tlbProbe charges a TLB miss when the per-CPU TLB is modelled and the
// page is not resident in it.
func (m *Machine) tlbProbe(cpu *CPU, va mem.Addr) {
	if cpu.tlb == nil {
		return
	}
	vpage := uint64(va) >> m.pageShift
	idx := vpage & uint64(len(cpu.tlb)-1)
	if cpu.tlb[idx] != vpage+1 {
		cpu.tlb[idx] = vpage + 1
		cpu.TLBMisses++
		cpu.Cycles += uint64(m.cfg.TLBMissCycles)
	}
}

// dataRef performs one data reference at virtual address va.
func (m *Machine) dataRef(cpu *CPU, tid mem.ThreadID, va mem.Addr, write bool) {
	m.tlbProbe(cpu, va)
	pa, ok := m.tlbLookup(va)
	if !ok {
		pa = m.translateMiss(va)
	}

	// Coherence, part 1: a store to a line we cache shared must
	// invalidate the other copies before proceeding. The shared flag of
	// a fresh fill is set by fill() below once the directory is known,
	// so the hierarchy is always entered with shared=false. The line
	// address is only needed by the directory branches, so the
	// uniprocessor hot path never computes it.
	if m.dir != nil && write && cpu.Hier.L2.IsShared(pa) {
		line := mem.LineAddr(pa, m.l2LineSize)
		m.invalidateOthers(line, cpu.ID)
		cpu.Hier.L2.SetShared(pa, false)
		m.setDirty(line, cpu.ID)
	}

	res := cpu.Hier.Data(tid, pa, write, false)
	switch res.Level {
	case cachesim.LevelL1:
		cpu.Cycles += uint64(m.cfg.L1D.HitCycles)
	case cachesim.LevelL2:
		cpu.Cycles += uint64(m.cfg.L2.HitCycles)
		cpu.ERefs++
		cpu.EHits++
		cpu.PMU.Record(perfctr.EventECacheRefs, 1)
		cpu.PMU.Record(perfctr.EventECacheHits, 1)
		if m.dir != nil && write {
			m.setDirty(mem.LineAddr(pa, m.l2LineSize), cpu.ID)
		}
	case cachesim.LevelMemory:
		penalty := uint64(m.cfg.MissCycles)
		if m.dir != nil {
			if m.fill(mem.LineAddr(pa, m.l2LineSize), cpu, write) {
				penalty = uint64(m.cfg.MissCyclesRemote)
			}
			if res.Victim.Valid {
				m.dropSharer(res.Victim.Line, cpu.ID)
			}
		}
		cpu.Cycles += penalty
		cpu.ERefs++
		cpu.EMisses++
		cpu.PMU.Record(perfctr.EventECacheRefs, 1)
		if m.MissHook != nil {
			m.MissHook(tid, va)
		}
	}
}

// TouchCode simulates the instruction-fetch side of dispatching thread
// tid: the lines of its code region are fetched through L1I and the
// unified E-cache once. Between scheduling points instruction fetch is
// assumed to hit (the loop body is resident); this captures the code
// component of the reload transient and code sharing between threads
// without per-instruction cost.
//
// The fetch lane walks the region one page at a time: one TLB charge
// and one translation per page (both idempotent for the page's later
// lines), then L1I hit runs (cachesim.Cache.HitRun) that cost one cycle
// charge per run, with each first miss issued through fetch. An L1I hit
// touches nothing but the L1I, so the lane is exact on every topology;
// noFastApply issues every line through fetch, the reference the
// differential tests compare against.
func (m *Machine) TouchCode(cpuID int, tid mem.ThreadID, code mem.Range) {
	if code.Len == 0 {
		return
	}
	cpu := m.cpus[cpuID]
	lineI := mem.Addr(m.cfg.L1I.LineSize)
	end := code.End()
	if m.noFastApply {
		for va := code.Base; va < end; va += lineI {
			m.tlbProbe(cpu, va)
			m.fetch(cpu, tid, m.translate(va))
		}
		return
	}
	for va := code.Base; va < end; {
		m.tlbProbe(cpu, va)
		delta := m.translate(va) - va
		segEnd := min(end, mem.Addr(uint64(va)|m.pageMask)+1)
		for va < segEnd {
			n := int((segEnd - va + lineI - 1) / lineI)
			h := cpu.Hier.L1I.HitRun(tid, va+delta, n)
			cpu.Cycles += uint64(h) * uint64(m.cfg.L1I.HitCycles)
			va += mem.Addr(h) * lineI
			if h < n {
				m.fetch(cpu, tid, va+delta)
				va += lineI
			}
		}
	}
}

// fetch performs one instruction fetch at physical address pa.
func (m *Machine) fetch(cpu *CPU, tid mem.ThreadID, pa mem.Addr) {
	res := cpu.Hier.Inst(tid, pa, false)
	switch res.Level {
	case cachesim.LevelL1:
		cpu.Cycles += uint64(m.cfg.L1I.HitCycles)
	case cachesim.LevelL2:
		cpu.Cycles += uint64(m.cfg.L2.HitCycles)
		cpu.ERefs++
		cpu.EHits++
		cpu.PMU.Record(perfctr.EventECacheRefs, 1)
		cpu.PMU.Record(perfctr.EventECacheHits, 1)
	case cachesim.LevelMemory:
		penalty := uint64(m.cfg.MissCycles)
		if m.dir != nil {
			if m.fill(mem.LineAddr(pa, m.l2LineSize), cpu, false) {
				penalty = uint64(m.cfg.MissCyclesRemote)
			}
			if res.Victim.Valid {
				m.dropSharer(res.Victim.Line, cpu.ID)
			}
		}
		cpu.Cycles += penalty
		cpu.ERefs++
		cpu.EMisses++
		cpu.PMU.Record(perfctr.EventECacheRefs, 1)
	}
}

// Advance charges compute work to a CPU: instrs instructions at one
// cycle each (the UltraSPARC-1 is modelled as a 1-IPC machine for
// non-memory work).
func (m *Machine) Advance(cpuID int, instrs uint64) {
	cpu := m.cpus[cpuID]
	cpu.Cycles += instrs
	cpu.Instrs += instrs
	cpu.PMU.Record(perfctr.EventInstructions, instrs)
}

// AdvanceCycles charges cycles (no instructions) to a CPU — scheduler
// bookkeeping, context switch latency, bus stalls.
func (m *Machine) AdvanceCycles(cpuID int, cycles uint64) {
	m.cpus[cpuID].Cycles += cycles
}

// fill updates the directory for a fresh fill of line on cpu, marking
// the line shared in the local cache when other copies exist. It
// reports whether the line was dirty in some other CPU's cache (the
// remote-dirty penalty case).
func (m *Machine) fill(line mem.Addr, cpu *CPU, write bool) (remoteDirty bool) {
	w, o := m.dir.entry(line)
	owner := int(*o) - 1
	remoteDirty = owner >= 0 && owner != cpu.ID
	selfWord, selfBit := uint(cpu.ID)>>6, uint64(1)<<(uint(cpu.ID)&63)
	if write {
		// Write miss: invalidate every other copy, own it dirty.
		m.invalidateOthers(line, cpu.ID)
		for i := range w {
			w[i] = 0
		}
		w[selfWord] = selfBit
		*o = int16(cpu.ID + 1)
		return remoteDirty
	}
	// Read miss: join the sharers; a remote dirty copy is downgraded to
	// clean (the intervention writes the data back to memory on the
	// owner's behalf).
	if remoteDirty {
		m.cpus[owner].Hier.L2.ClearDirty(line)
		*o = 0
	} else if owner == cpu.ID {
		// Refetching a line we own dirty cannot happen (it would be a
		// hit); defensive clear.
		*o = 0
	}
	w[selfWord] |= selfBit
	// Any copy besides ours? Then every copy is shared, including ours
	// (the hierarchy fill already inserted; set the flag now), visiting
	// the other sharers in ascending CPU order.
	hasOthers := false
	for wi, word := range w {
		if uint(wi) == selfWord {
			word &^= selfBit
		}
		if word != 0 {
			hasOthers = true
			break
		}
	}
	if hasOthers {
		cpu.Hier.L2.SetShared(line, true)
		for wi, word := range w {
			if uint(wi) == selfWord {
				word &^= selfBit
			}
			for word != 0 {
				i := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				m.cpus[i].Hier.L2.SetShared(line, true)
			}
		}
	}
	return remoteDirty
}

// setDirty records that cpu now holds line dirty (write hit).
func (m *Machine) setDirty(line mem.Addr, cpuID int) {
	w, o := m.dir.entry(line)
	*o = int16(cpuID + 1)
	w[uint(cpuID)>>6] |= 1 << (uint(cpuID) & 63)
}

// invalidateOthers removes every copy of line except cpuID's.
func (m *Machine) invalidateOthers(line mem.Addr, cpuID int) {
	w, o := m.dir.peek(line)
	if w == nil || maskEmpty(w) {
		return
	}
	selfWord, selfBit := uint(cpuID)>>6, uint64(1)<<(uint(cpuID)&63)
	for wi, word := range w {
		if uint(wi) == selfWord {
			word &^= selfBit
			w[wi] &= selfBit
		} else {
			w[wi] = 0
		}
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			m.cpus[i].Hier.InvalidateLine(line)
		}
	}
	if owner := int(*o) - 1; owner >= 0 && owner != cpuID {
		*o = 0
	}
	if w[selfWord]&selfBit == 0 {
		*o = 0
	}
}

// dropSharer records that cpuID no longer caches line (local eviction).
func (m *Machine) dropSharer(line mem.Addr, cpuID int) {
	w, o := m.dir.peek(line)
	if w == nil || maskEmpty(w) {
		return
	}
	w[uint(cpuID)>>6] &^= 1 << (uint(cpuID) & 63)
	if int(*o)-1 == cpuID {
		*o = 0
	}
	if maskEmpty(w) {
		*o = 0
	}
}

// RegisterState registers virtual byte ranges as thread tid's state with
// every CPU's footprint tracker (no-op unless TrackFootprints). The
// ranges are translated page by page, since contiguous virtual ranges
// scatter across physical pages.
func (m *Machine) RegisterState(tid mem.ThreadID, ranges ...mem.Range) {
	if !m.cfg.TrackFootprints {
		return
	}
	var phys []mem.Range
	ps := m.cfg.PageSize
	for _, r := range ranges {
		for base := r.Base; base < r.End(); {
			pageEnd := mem.Addr((uint64(base)/ps + 1) * ps)
			hi := r.End()
			if pageEnd < hi {
				hi = pageEnd
			}
			phys = append(phys, mem.Range{Base: m.translate(base), Len: uint64(hi - base)})
			base = hi
		}
	}
	if m.shared != nil {
		// Every CPU aliases the one shared-cache tracker; register and
		// rebuild once.
		tr := m.cpus[0].Tracker
		tr.Register(tid, phys...)
		tr.Rebuild(m.shared.Cache())
		return
	}
	for _, cpu := range m.cpus {
		cpu.Tracker.Register(tid, phys...)
		cpu.Tracker.Rebuild(cpu.Hier.L2)
	}
}

// Footprint returns the observed footprint of tid in cpu's E-cache, in
// lines. It requires TrackFootprints.
func (m *Machine) Footprint(cpuID int, tid mem.ThreadID) int64 {
	cpu := m.cpus[cpuID]
	if cpu.Tracker == nil {
		// Invariant: experiment code enables TrackFootprints before asking.
		panic("machine: Footprint without TrackFootprints")
	}
	return cpu.Tracker.Footprint(tid)
}

// FlushCaches empties every CPU's hierarchy and the coherence
// directory — the paper flushes the cache before measuring reload
// transients.
func (m *Machine) FlushCaches() {
	for _, cpu := range m.cpus {
		cpu.Hier.Flush()
	}
	if m.dir != nil {
		m.dir.reset()
	}
}

// MaxCycles returns the largest per-CPU clock — the parallel completion
// time of the run.
func (m *Machine) MaxCycles() uint64 {
	var max uint64
	for _, cpu := range m.cpus {
		if cpu.Cycles > max {
			max = cpu.Cycles
		}
	}
	return max
}

// Traffic summarizes memory-bus traffic in bytes: line fills (reads
// from memory) and write-backs of dirty lines, aggregated over the
// per-CPU E-caches.
type Traffic struct {
	// FillBytes is data read from memory (E-cache misses × line size).
	FillBytes uint64
	// WritebackBytes is dirty data written back to memory.
	WritebackBytes uint64
}

// Total returns the total bus traffic in bytes.
func (t Traffic) Total() uint64 { return t.FillBytes + t.WritebackBytes }

// MemoryTraffic aggregates bus traffic across the machine.
func (m *Machine) MemoryTraffic() Traffic {
	line := uint64(m.cfg.L2.LineSize)
	var t Traffic
	if m.shared != nil {
		// One machine-wide cache: read its stats once, not per CPU
		// (every hierarchy's L2 field aliases it).
		st := m.shared.Cache().Stats()
		t.FillBytes = st.Misses * line
		t.WritebackBytes = st.Writebacks * line
		return t
	}
	for _, cpu := range m.cpus {
		st := cpu.Hier.L2.Stats()
		t.FillBytes += st.Misses * line
		t.WritebackBytes += st.Writebacks * line
	}
	return t
}

// Totals sums the E-cache shadow counters across CPUs.
func (m *Machine) Totals() (refs, hits, misses uint64) {
	for _, cpu := range m.cpus {
		refs += cpu.ERefs
		hits += cpu.EHits
		misses += cpu.EMisses
	}
	return refs, hits, misses
}

// TotalInstrs sums instructions executed across CPUs.
func (m *Machine) TotalInstrs() uint64 {
	var n uint64
	for _, cpu := range m.cpus {
		n += cpu.Instrs
	}
	return n
}

// CheckCoherence verifies the write-invalidate invariants across the
// per-CPU E-caches and the directory (diagnostics and property tests):
//
//   - a line is dirty in at most one cache, and nowhere else at all;
//   - every resident copy is recorded in the directory's sharer set;
//   - every directory sharer bit corresponds to a resident copy;
//   - a line resident in two or more caches is marked shared in each.
//
// It returns a descriptive error for the first violation found.
//
// On a shared topology the directory does not exist; the corresponding
// invariants live in the shared cache and its sharer sets, checked by
// checkSharedCoherence.
func (m *Machine) CheckCoherence() error {
	if m.shared != nil {
		return m.checkSharedCoherence()
	}
	if m.dir == nil {
		return nil // uniprocessor: nothing to check
	}
	// Residency per line from the caches themselves.
	type residency struct {
		sharers cpuMask
		dirty   []int
	}
	lines := make(map[mem.Addr]*residency)
	for _, cpu := range m.cpus {
		id := cpu.ID
		cpu.Hier.L2.ForEachValidLine(func(line mem.Addr, _ mem.ThreadID) {
			r := lines[line]
			if r == nil {
				r = &residency{}
				lines[line] = r
			}
			r.sharers.set(id)
			if cpu.Hier.L2.IsDirty(line) {
				r.dirty = append(r.dirty, id)
			}
		})
	}
	for line, r := range lines {
		if len(r.dirty) > 1 {
			return fmt.Errorf("machine: line %#x dirty in caches %v", uint64(line), r.dirty)
		}
		if len(r.dirty) == 1 && !(r.sharers.count() == 1 && r.sharers.has(r.dirty[0])) {
			return fmt.Errorf("machine: line %#x dirty in cache %d but cached by mask %v",
				uint64(line), r.dirty[0], r.sharers)
		}
		e, ok := m.dir.lookup(line)
		if !ok || e.sharers.empty() {
			return fmt.Errorf("machine: line %#x resident (mask %v) but absent from directory", uint64(line), r.sharers)
		}
		if !e.sharers.covers(&r.sharers) {
			return fmt.Errorf("machine: line %#x resident mask %v not covered by directory mask %v",
				uint64(line), r.sharers, e.sharers)
		}
		if r.sharers.count() > 1 {
			var shareErr error
			r.sharers.forEach(func(i int) {
				if shareErr == nil && !m.cpus[i].Hier.L2.IsShared(line) {
					shareErr = fmt.Errorf("machine: line %#x cached by mask %v but unmarked shared on cpu %d",
						uint64(line), r.sharers, i)
				}
			})
			if shareErr != nil {
				return shareErr
			}
		}
	}
	// Directory entries must not claim residency that does not exist.
	var claimErr error
	m.dir.forEach(func(line mem.Addr, e dirEntry) {
		if claimErr != nil {
			return
		}
		var actual cpuMask
		if r := lines[line]; r != nil {
			actual = r.sharers
		}
		if !actual.covers(&e.sharers) {
			claimErr = fmt.Errorf("machine: directory claims mask %v for line %#x, resident mask %v",
				e.sharers, uint64(line), actual)
		}
	})
	return claimErr
}

// checkSharedCoherence verifies the shared-topology invariants:
//
//   - every resident shared-L2 line records at least one sharer, all of
//     them real CPUs;
//   - a line is marked shared exactly when its sharer set has two or
//     more members;
//   - every valid L1 line is covered by a resident shared-L2 line
//     (inclusion) whose sharer set includes the holding CPU — the
//     sharer sets are conservative supersets of L1 residency, so
//     coverage must never be violated in this direction.
func (m *Machine) checkSharedCoherence() error {
	sc := m.shared.Cache()
	var err error
	sc.ForEachValidLine(func(line mem.Addr, _ mem.ThreadID) {
		if err != nil {
			return
		}
		mask, _ := m.shared.Sharers(line)
		cm := cpuMask(mask)
		n := cm.count()
		if n == 0 {
			err = fmt.Errorf("machine: shared line %#x resident with an empty sharer set", uint64(line))
			return
		}
		bad := -1
		cm.forEach(func(i int) {
			if i >= m.cfg.CPUs {
				bad = i
			}
		})
		if bad >= 0 {
			err = fmt.Errorf("machine: shared line %#x records sharer %d beyond the %d-CPU machine",
				uint64(line), bad, m.cfg.CPUs)
			return
		}
		if sc.IsShared(line) != (n > 1) {
			err = fmt.Errorf("machine: shared line %#x has %d sharers but shared mark %v",
				uint64(line), n, sc.IsShared(line))
		}
	})
	if err != nil {
		return err
	}
	for _, cpu := range m.cpus {
		for _, l1 := range []*cachesim.Cache{cpu.Hier.L1I, cpu.Hier.L1D} {
			id, name := cpu.ID, l1.Config().Name
			l1.ForEachValidLine(func(l1line mem.Addr, _ mem.ThreadID) {
				if err != nil {
					return
				}
				if !sc.Contains(l1line) {
					err = fmt.Errorf("machine: cpu %d holds %#x in %s without a shared-L2 copy (inclusion)",
						id, uint64(l1line), name)
					return
				}
				mask, _ := m.shared.Sharers(l1line)
				cm := cpuMask(mask)
				if !cm.has(id) {
					err = fmt.Errorf("machine: cpu %d holds %#x in %s but is absent from sharer set %v",
						id, uint64(l1line), name, cm)
				}
			})
		}
	}
	return err
}
