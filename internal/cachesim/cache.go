// Package cachesim implements the cache simulator the reproduction uses
// in place of the paper's Shade-based simulator. It provides a generic
// set-associative cache with LRU replacement, a three-cache UltraSPARC-1
// style hierarchy (L1 instruction, L1 data, unified external L2) with
// inclusion, and a footprint tracker that observes, per thread, how many
// of the thread's state lines are resident — the quantity the paper's
// analytical model predicts.
//
// All addresses handled by this package are physical; virtual-to-
// physical translation happens in the machine layer (see internal/vm and
// internal/machine).
package cachesim

import (
	"fmt"

	"repro/internal/mem"
)

// Config describes one cache.
type Config struct {
	// Name identifies the cache in stats output ("L1D", "E").
	Name string
	// Size is the capacity in bytes (a power of two).
	Size int64
	// LineSize is the line size in bytes (a power of two).
	LineSize int
	// Assoc is the associativity; 1 means direct-mapped.
	Assoc int
	// HitCycles is the access latency charged on a hit in this cache.
	HitCycles int
}

// Lines returns the cache capacity in lines.
func (c Config) Lines() int { return int(c.Size) / c.LineSize }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

func (c Config) String() string {
	return fmt.Sprintf("%s: %dKB, %dB line, %d-way, hit %d cy",
		c.Name, c.Size/1024, c.LineSize, c.Assoc, c.HitCycles)
}

func (c Config) validate() {
	if !mem.IsPow2(uint64(c.Size)) || !mem.IsPow2(uint64(c.LineSize)) {
		// Invariant: geometry comes from machine.Config presets/Validate.
		panic(fmt.Sprintf("cachesim: %s size %d / line %d must be powers of two", c.Name, c.Size, c.LineSize))
	}
	if c.Assoc < 1 || c.Lines()%c.Assoc != 0 {
		// Invariant: associativity comes from the same validated config.
		panic(fmt.Sprintf("cachesim: %s bad associativity %d", c.Name, c.Assoc))
	}
}

// Victim describes a line displaced by an insertion.
type Victim struct {
	// Valid reports whether a line was actually displaced (false when
	// the fill landed in an empty way).
	Valid bool
	// Line is the line-aligned physical address of the displaced line.
	Line mem.Addr
	// Dirty reports whether the displaced line had been written and a
	// write-back is due.
	Dirty bool
	// Owner is the thread that last accessed the displaced line.
	Owner mem.ThreadID
}

// Stats accumulates per-cache event counts.
type Stats struct {
	Refs          uint64 // lookups
	Hits          uint64
	Misses        uint64
	Evictions     uint64 // valid lines displaced by fills
	Writebacks    uint64 // dirty lines displaced or invalidated
	Invalidations uint64 // lines removed by coherence or inclusion
}

// MissRate returns misses/refs, or 0 with no references.
func (s Stats) MissRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Refs)
}

// Listener observes line-level cache events. It is used by the footprint
// tracker; the machine layer tracks coherence through return values
// instead, so the hot path pays for a listener only when one is set.
type Listener interface {
	// Filled reports that line (line-aligned physical address) became
	// resident, brought in by thread tid.
	Filled(line mem.Addr, tid mem.ThreadID)
	// Evicted reports that line left the cache (displacement or
	// invalidation).
	Evicted(line mem.Addr, dirty bool)
}

// slot key bits: a slot's key is (line number + 1) << 2 with the two
// coherence marks in its low bits, and 0 marks an invalid slot.
const (
	keyDirty  = 1 << 0
	keyShared = 1 << 1 // cached by another CPU (coherence state)
	keyMarks  = keyDirty | keyShared
	keyShift  = 2
)

// slot is one cache line's bookkeeping: the line's identity and both
// coherence marks packed into one 32-bit key, next to its last
// accessor — 8 bytes, so one hardware cache line holds eight probes'
// worth of simulated lines (the simulator's hottest loads). owner is
// meaningful only while key != 0. LRU recency lives in a separate side
// array that only associative caches allocate; the direct-mapped fast
// lanes never read it.
type slot struct {
	key   uint32
	owner mem.ThreadID
}

// holds reports whether s holds the line whose probe key (see probe)
// is k: one masked compare. The compare is 64-bit, so a line beyond
// the key's reach (k ≥ 2^32) matches no slot instead of aliasing one.
func (s *slot) holds(k uint64) bool { return uint64(s.key)&^keyMarks == k }

// Cache is a single set-associative cache. The zero value is unusable;
// construct with New. Cache is not safe for concurrent use.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	ways      int
	// direct marks the Assoc==1 fast lane: set index == slot index, no
	// way scan and no LRU bookkeeping (recency is meaningless with one
	// way). The E-cache every experiment hammers is direct-mapped, so
	// this is the simulator's single hottest specialization.
	direct bool
	// forceGeneric disables the fast lane so the differential tests can
	// drive the generic way-scan path on an Assoc==1 geometry and
	// compare. Test-only, set through useGeneric.
	forceGeneric bool

	// Slot i of set s lives at index s*ways+i.
	slots []slot
	// lastUse[i] is slot i's LRU timestamp; only the generic
	// (associative) paths read or write it, so direct-mapped caches
	// leave it nil.
	lastUse []uint64

	useClock uint64
	valid    int // number of valid lines
	stats    Stats

	listener Listener
	// classify, when non-nil, labels every miss with Hill's three C's
	// against a fully-associative LRU shadow (see classify.go). It
	// assumes fill-on-miss, which holds for the E-cache.
	classify *classifier
}

// New constructs a cache from its configuration.
func New(cfg Config) *Cache {
	cfg.validate()
	c := &Cache{
		cfg:       cfg,
		lineShift: mem.Log2(uint64(cfg.LineSize)),
		setMask:   uint64(cfg.Sets() - 1),
		ways:      cfg.Assoc,
		direct:    cfg.Assoc == 1,
		slots:     make([]slot, cfg.Lines()),
	}
	if !c.direct {
		c.lastUse = make([]uint64, cfg.Lines())
	}
	return c
}

// useGeneric pins c to the generic way-scan paths, allocating the LRU
// stamps they keep. Test-only: the differential tests drive both paths
// on one direct-mapped geometry and compare.
func (c *Cache) useGeneric() {
	c.forceGeneric = true
	if c.lastUse == nil {
		c.lastUse = make([]uint64, len(c.slots))
	}
}

// lineNum returns the number of the line containing a. lineShift is
// below 64; masking it spares the shift its out-of-range fixup, and
// one spelling lets the compiler share the shift between a probe's
// slot index and its key.
func (c *Cache) lineNum(a mem.Addr) uint64 { return uint64(a) >> (c.lineShift & 63) }

// probe returns the probe key of the line containing a: its line
// number plus one, shifted past the mark bits. It exceeds 32 bits for
// a line beyond the key's reach, which holds therefore never matches.
func (c *Cache) probe(a mem.Addr) uint64 { return (c.lineNum(a) + 1) << keyShift }

// fillKey returns the unmarked slot key a fill of the line with probe
// key k stores. A line whose number does not fit the 32-bit key panics
// here, at the fill, rather than alias another line.
func (c *Cache) fillKey(k uint64) uint32 {
	if k>>32 != 0 {
		c.keyOverflow(k)
	}
	return uint32(k)
}

// keyOverflow is fillKey's cold panic, kept out of line so fillKey
// inlines into the fill paths.
//
//go:noinline
func (c *Cache) keyOverflow(k uint64) {
	// Invariant: simulated physical addresses stay below 2^30 lines of
	// the smallest cache line (16 GB with 16-byte lines); the naive and
	// careful page mappers synthesize frames densely from zero.
	panic(fmt.Sprintf("cachesim: %s line key overflow: physical address %#x is beyond the %d-byte reach of a 32-bit slot key",
		c.cfg.Name, (k>>keyShift-1)<<c.lineShift, uint64(1<<(32-keyShift)-1)<<c.lineShift))
}

// lineOf returns the line-aligned address a valid slot key names.
func (c *Cache) lineOf(key uint32) mem.Addr {
	return mem.Addr(uint64(key>>keyShift)-1) << c.lineShift
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetListener installs (or clears, with nil) the line event listener.
func (c *Cache) SetListener(l Listener) { c.listener = l }

// ValidLines returns the number of currently valid lines.
func (c *Cache) ValidLines() int { return c.valid }

// LineOf returns the line-aligned address containing a.
func (c *Cache) LineOf(a mem.Addr) mem.Addr { return a >> c.lineShift << c.lineShift }

func (c *Cache) setOf(line mem.Addr) int {
	return int(c.lineNum(line) & c.setMask)
}

// find returns the slot index holding line, or -1.
func (c *Cache) find(line mem.Addr) int {
	k := c.probe(line)
	if c.direct && !c.forceGeneric {
		i := c.setOf(line)
		if c.slots[i].holds(k) {
			return i
		}
		return -1
	}
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if i := base + w; c.slots[i].holds(k) {
			return i
		}
	}
	return -1
}

// Lookup probes the cache for the line containing a. On a hit it updates
// recency, attributes the line to tid, and marks it dirty when write is
// set. It reports whether the probe hit. Lookup counts one reference.
func (c *Cache) Lookup(tid mem.ThreadID, a mem.Addr, write bool) bool {
	if c.direct && !c.forceGeneric {
		return c.lookupDM(tid, a, write)
	}
	c.stats.Refs++
	line := c.LineOf(a)
	i := c.find(line)
	if i < 0 {
		c.stats.Misses++
		if c.classify != nil {
			c.classify.classify(line)
			c.classify.touch(line)
		}
		return false
	}
	c.stats.Hits++
	if c.classify != nil {
		c.classify.touch(line)
	}
	c.useClock++
	c.lastUse[i] = c.useClock
	s := &c.slots[i]
	s.owner = tid
	if write {
		s.key |= keyDirty
	}
	return true
}

// lookupDM is the direct-mapped Lookup fast lane: the set index IS the
// slot index, so the probe is one key compare, and the LRU clock is
// never advanced (recency cannot influence victim choice in a one-way
// set). Statistics, classification and ownership attribution are
// identical to the generic path — the differential tests in
// cache_fastpath_test.go pin that equivalence.
func (c *Cache) lookupDM(tid mem.ThreadID, a mem.Addr, write bool) bool {
	c.stats.Refs++
	s := &c.slots[c.setOf(a)]
	if !s.holds(c.probe(a)) {
		c.stats.Misses++
		if c.classify != nil {
			line := c.LineOf(a)
			c.classify.classify(line)
			c.classify.touch(line)
		}
		return false
	}
	c.stats.Hits++
	if c.classify != nil {
		c.classify.touch(c.LineOf(a))
	}
	s.owner = tid
	if write {
		s.key |= keyDirty
	}
	return true
}

// Repeat replays the bookkeeping of k further Lookup calls for the
// line containing a, under the caller's guarantee that the outcome is
// frozen: no fill or eviction can happen between the replayed
// references, so they all hit if the line is resident now and all miss
// otherwise (the machine's same-line run batching — repeat loads hit
// the line the first reference left resident; repeat stores see the
// non-allocating write-through L1D unchanged). Event-for-event
// identical to k Lookups: statistics; the classifier shadow (k touches
// of one line leave the LRU stack exactly as one; k misses classify
// each time, as Lookup would); ownership and dirty marking on hits;
// and — on the generic path — the recency clock, which advances once
// per hit.
func (c *Cache) Repeat(tid mem.ThreadID, a mem.Addr, write bool, k int) {
	if k <= 0 {
		return
	}
	line := c.LineOf(a)
	var i int
	if c.direct && !c.forceGeneric {
		i = c.setOf(line)
		if !c.slots[i].holds(c.probe(line)) {
			i = -1
		}
	} else {
		i = c.find(line)
	}
	c.stats.Refs += uint64(k)
	if i < 0 {
		c.stats.Misses += uint64(k)
		if c.classify != nil {
			for ; k > 0; k-- {
				c.classify.classify(line)
				c.classify.touch(line)
			}
		}
		return
	}
	c.stats.Hits += uint64(k)
	if c.classify != nil {
		c.classify.touch(line)
	}
	if !c.direct || c.forceGeneric {
		c.useClock += uint64(k)
		c.lastUse[i] = c.useClock
	}
	s := &c.slots[i]
	s.owner = tid
	if write {
		s.key |= keyDirty
	}
}

// RepeatHit is Repeat under the caller's stronger guarantee that the
// line is resident: the same reference was issued immediately before
// and nothing can have evicted the line since, so its slot already
// carries tid's ownership (and dirtiness, for writes). The
// direct-mapped lane then skips the probe and the slot write entirely —
// pure statistics — which matters because the slot load is the one
// memory access Repeat would otherwise take. The generic lane falls
// back to Repeat: its LRU clock must still advance per replayed
// reference.
func (c *Cache) RepeatHit(tid mem.ThreadID, a mem.Addr, write bool, k int) {
	if c.direct && !c.forceGeneric {
		if k <= 0 {
			return
		}
		c.stats.Refs += uint64(k)
		c.stats.Hits += uint64(k)
		if c.classify != nil {
			c.classify.touch(c.LineOf(a))
		}
		return
	}
	c.Repeat(tid, a, write, k)
}

// HitRun issues loads by tid to the n consecutive lines starting at
// a's line while they hit, and returns how many did; the first missing
// line is left for the caller to issue through the full path. Each hit
// is what Lookup(tid, ·, false) does on a hit: statistics, ownership
// and, on the generic path, the recency clock, which advances per hit
// so later victim choices see the same order. With a classifier
// attached it reports no hits, so the caller's full path issues every
// line and classifies it.
func (c *Cache) HitRun(tid mem.ThreadID, a mem.Addr, n int) int {
	if c.classify != nil {
		return 0
	}
	lru := !c.direct || c.forceGeneric
	ln := c.lineNum(a)
	h := 0
	for ; h < n; h++ {
		// find's way scan, inlined (a direct-mapped set is one way):
		// the call would cost more than the two-way scan itself.
		k := (ln + 1) << keyShift
		i := int(ln&c.setMask) * c.ways
		end := i + c.ways
		for i < end && !c.slots[i].holds(k) {
			i++
		}
		if i == end {
			break
		}
		if lru {
			c.useClock++
			c.lastUse[i] = c.useClock
		}
		c.slots[i].owner = tid
		ln++
	}
	c.stats.Refs += uint64(h)
	c.stats.Hits += uint64(h)
	return h
}

// Contains reports whether the line containing a is resident, without
// any side effects (no stats, no recency update). For tests and
// diagnostics.
func (c *Cache) Contains(a mem.Addr) bool { return c.find(c.LineOf(a)) >= 0 }

// IsDirty reports whether the line containing a is resident and dirty,
// without side effects.
func (c *Cache) IsDirty(a mem.Addr) bool {
	i := c.find(c.LineOf(a))
	return i >= 0 && c.slots[i].key&keyDirty != 0
}

// IsShared reports whether the resident line containing a carries the
// coherence "shared" mark.
func (c *Cache) IsShared(a mem.Addr) bool {
	i := c.find(c.LineOf(a))
	return i >= 0 && c.slots[i].key&keyShared != 0
}

// ClearDirty removes the dirty mark from a resident line — a coherence
// intervention wrote the data back to memory on the owner's behalf. It
// is a no-op if the line is absent.
func (c *Cache) ClearDirty(a mem.Addr) {
	if i := c.find(c.LineOf(a)); i >= 0 {
		c.slots[i].key &^= keyDirty
	}
}

// SetShared sets or clears the coherence "shared" mark on a resident
// line. It is a no-op if the line is absent.
func (c *Cache) SetShared(a mem.Addr, shared bool) {
	i := c.find(c.LineOf(a))
	if i < 0 {
		return
	}
	if shared {
		c.slots[i].key |= keyShared
	} else {
		c.slots[i].key &^= keyShared
	}
}

// Insert fills the line containing a into the cache on behalf of tid,
// choosing an invalid way if one exists and the LRU way otherwise. The
// dirty flag marks the new line as modified (write-allocate of a store);
// the shared flag carries the coherence state assigned by the machine.
// It returns the displaced victim, if any. Inserting a line that is
// already resident just refreshes its state.
func (c *Cache) Insert(tid mem.ThreadID, a mem.Addr, dirty, shared bool) Victim {
	if c.direct && !c.forceGeneric {
		return c.insertDM(tid, a, dirty, shared)
	}
	line := c.LineOf(a)
	if i := c.find(line); i >= 0 {
		// Already resident (e.g. refetched after an upgrade); refresh.
		c.useClock++
		c.lastUse[i] = c.useClock
		s := &c.slots[i]
		s.owner = tid
		if dirty {
			s.key |= keyDirty
		}
		return Victim{}
	}
	base := c.setOf(line) * c.ways
	idx := -1
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.slots[i].key == 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Evict the LRU way.
		idx = base
		for w := 1; w < c.ways; w++ {
			if c.lastUse[base+w] < c.lastUse[idx] {
				idx = base + w
			}
		}
	}
	c.useClock++
	c.lastUse[idx] = c.useClock
	return c.fill(&c.slots[idx], line, tid, dirty, shared)
}

// insertDM is the direct-mapped Insert fast lane: the target slot is
// known from the address alone, so there is no invalid-way scan and no
// LRU victim search — the sole resident line of the set, if any and not
// the refill itself, is the victim. Event order (eviction listener
// before fill listener), statistics and the returned Victim match the
// generic path exactly.
func (c *Cache) insertDM(tid mem.ThreadID, a mem.Addr, dirty, shared bool) Victim {
	s := &c.slots[c.setOf(a)]
	if s.holds(c.probe(a)) {
		// Already resident (e.g. refetched after an upgrade); refresh.
		s.owner = tid
		if dirty {
			s.key |= keyDirty
		}
		return Victim{}
	}
	return c.fill(s, c.LineOf(a), tid, dirty, shared)
}

// fill writes line into slot s on behalf of tid, under the caller's
// guarantee that s does not hold line: the tail of every insert path.
// It displaces the valid line s holds, if any — the returned victim,
// the eviction statistics and the listener's eviction event, ahead of
// the fill event.
func (c *Cache) fill(s *slot, line mem.Addr, tid mem.ThreadID, dirty, shared bool) Victim {
	key := c.fillKey(c.probe(line))
	if dirty {
		key |= keyDirty
	}
	if shared {
		key |= keyShared
	}
	var victim Victim
	if old := s.key; old != 0 {
		victim = Victim{Valid: true, Line: c.lineOf(old), Dirty: old&keyDirty != 0, Owner: s.owner}
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.Writebacks++
		}
		if c.listener != nil {
			c.listener.Evicted(victim.Line, victim.Dirty)
		}
	} else {
		c.valid++
	}
	s.key, s.owner = key, tid
	if c.listener != nil {
		c.listener.Filled(line, tid)
	}
	return victim
}

// Invalidate removes the line containing a if resident, reporting
// whether it was present and whether it was dirty (the caller decides
// what a dirty invalidation means — coherence write-back, inclusion
// victim, etc.).
func (c *Cache) Invalidate(a mem.Addr) (present, dirty bool) {
	i := c.find(c.LineOf(a))
	if i < 0 {
		return false, false
	}
	return true, c.drop(&c.slots[i])
}

// drop invalidates the valid line in slot s, counting the invalidation
// (and its write-back when dirty) and notifying the listener. It
// reports whether the line was dirty.
func (c *Cache) drop(s *slot) (dirty bool) {
	dirty = s.key&keyDirty != 0
	line := c.lineOf(s.key)
	s.key = 0
	c.valid--
	c.stats.Invalidations++
	if dirty {
		c.stats.Writebacks++
	}
	if c.listener != nil {
		c.listener.Evicted(line, dirty)
	}
	return dirty
}

// InvalidateSpan invalidates every line of this cache overlapping the
// byte span [base, base+n). It is used to maintain inclusion when an
// outer cache with a larger line evicts. It returns the number of lines
// invalidated.
func (c *Cache) InvalidateSpan(base mem.Addr, n uint64) int {
	if c.direct && !c.forceGeneric {
		return c.invalidateSpanDM(base, n)
	}
	count := 0
	for line := c.LineOf(base); line < base+mem.Addr(n); line += mem.Addr(c.cfg.LineSize) {
		if present, _ := c.Invalidate(line); present {
			count++
		}
	}
	return count
}

// invalidateSpanDM is InvalidateSpan for the direct-mapped organisation:
// each line of the span indexes its slot directly, with no per-line
// dispatch through Invalidate/find (inclusion invalidations run once per
// outer-cache eviction, so this sits on the miss path).
func (c *Cache) invalidateSpanDM(base mem.Addr, n uint64) int {
	count := 0
	k := c.probe(base)
	for line := base >> c.lineShift << c.lineShift; line < base+mem.Addr(n); line += mem.Addr(c.cfg.LineSize) {
		if s := &c.slots[(k>>keyShift-1)&c.setMask]; s.holds(k) {
			c.drop(s)
			count++
		}
		k += 1 << keyShift
	}
	return count
}

// Flush invalidates every line. Statistics are preserved; the listener
// sees an eviction for each valid line.
func (c *Cache) Flush() {
	for i := range c.slots {
		if c.slots[i].key != 0 {
			c.drop(&c.slots[i])
		}
	}
}

// ForEachValidLine calls fn for every resident line with its
// line-aligned address and last accessor, in slot order.
func (c *Cache) ForEachValidLine(fn func(line mem.Addr, owner mem.ThreadID)) {
	for i := range c.slots {
		if s := c.slots[i]; s.key != 0 {
			fn(c.lineOf(s.key), s.owner)
		}
	}
}

// OwnerFootprint returns the number of resident lines whose last
// accessor is tid. This is the cheap attribution used by scheduling
// experiments; the model-evaluation experiments use the Tracker, which
// implements the paper's state-projection definition instead.
func (c *Cache) OwnerFootprint(tid mem.ThreadID) int {
	n := 0
	for i := range c.slots {
		if c.slots[i].key != 0 && c.slots[i].owner == tid {
			n++
		}
	}
	return n
}
