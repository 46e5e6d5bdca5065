package cachesim

// Cache topologies. The paper's machines give every CPU a private
// direct-mapped E-cache; modern multi-cores instead share a last-level
// cache, where co-running threads evict each other's lines and
// cross-CPU sharing is resolved inside the one cache rather than by an
// invalidate directory. Topology names the organisations the simulator
// can build and SharedL2 is the shared-cache backend: one Cache filled
// by every CPU, plus per-line sharer sets that drive L1 inclusion and
// write-invalidation across CPUs.
//
// Dispatch is config-selected, not interface-dispatched: machine.New
// reads the Topology once and builds either the classic private
// hierarchies (whose direct-mapped fast lanes are untouched) or shared
// hierarchies whose Data/Inst paths branch to the shared backend. The
// set-associative and fully-associative variants reuse the generic
// LRU Cache (per Gysi et al., arXiv:2001.01653, a shared cache is
// modelled well by LRU over one line pool); shared-llc keeps the
// paper's direct-mapped geometry.

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/mem"
)

// TopoKind enumerates cache organisations.
type TopoKind uint8

const (
	// TopoPrivate is the paper's organisation: one private
	// direct-mapped (per the preset config) L2 per CPU with a
	// write-invalidate directory between them. The zero value, so
	// existing configurations are unchanged.
	TopoPrivate TopoKind = iota
	// TopoSharedLLC shares one L2 of the configured geometry
	// (direct-mapped in the presets) among every CPU.
	TopoSharedLLC
	// TopoSharedAssoc shares one W-way set-associative LRU L2.
	TopoSharedAssoc
	// TopoSharedFA shares one fully-associative LRU L2 (one set).
	TopoSharedFA
)

// Topology selects the cache organisation of a machine. The zero value
// is the private per-CPU hierarchy of the paper.
type Topology struct {
	Kind TopoKind
	// Ways is the associativity of a TopoSharedAssoc L2; ignored by the
	// other kinds.
	Ways int
}

// Shared reports whether the topology shares one L2 among all CPUs.
func (t Topology) Shared() bool { return t.Kind != TopoPrivate }

// String renders the canonical flag spelling of the topology.
func (t Topology) String() string {
	switch t.Kind {
	case TopoSharedLLC:
		return "shared-llc"
	case TopoSharedAssoc:
		return "shared-assoc:" + strconv.Itoa(t.Ways)
	case TopoSharedFA:
		return "shared-fa"
	default:
		return "private-dm"
	}
}

// ParseTopology parses a -topology flag value. The empty string means
// the private default. Errors name the accepted spellings so a typo
// fails fast with usage.
func ParseTopology(spec string) (Topology, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	switch {
	case s == "" || s == "private-dm":
		return Topology{}, nil
	case s == "shared-llc":
		return Topology{Kind: TopoSharedLLC}, nil
	case s == "shared-fa":
		return Topology{Kind: TopoSharedFA}, nil
	case strings.HasPrefix(s, "shared-assoc:"):
		w, err := strconv.Atoi(strings.TrimPrefix(s, "shared-assoc:"))
		if err != nil || w < 1 {
			return Topology{}, fmt.Errorf("cachesim: bad way count in topology %q (want shared-assoc:W with integer W >= 1)", spec)
		}
		return Topology{Kind: TopoSharedAssoc, Ways: w}, nil
	default:
		return Topology{}, fmt.Errorf("cachesim: unknown topology %q (have private-dm, shared-llc, shared-assoc:W, shared-fa)", spec)
	}
}

// Validate checks the topology against the L2 geometry it will apply
// to, returning a descriptive error for impossible combinations.
func (t Topology) Validate(l2 Config) error {
	switch t.Kind {
	case TopoPrivate, TopoSharedLLC, TopoSharedFA:
		return nil
	case TopoSharedAssoc:
		if t.Ways < 1 || t.Ways > l2.Lines() || l2.Lines()%t.Ways != 0 {
			return fmt.Errorf("cachesim: shared-assoc:%d does not divide the %d-line L2", t.Ways, l2.Lines())
		}
		return nil
	default:
		return fmt.Errorf("cachesim: unknown topology kind %d", t.Kind)
	}
}

// L2Config returns the effective L2 geometry under the topology: the
// associativity is rewritten for the shared-assoc and shared-fa
// variants; private and shared-llc keep the configured geometry.
func (t Topology) L2Config(l2 Config) Config {
	switch t.Kind {
	case TopoSharedAssoc:
		l2.Assoc = t.Ways
	case TopoSharedFA:
		l2.Assoc = l2.Lines()
	}
	return l2
}

// SharedL2 is a last-level cache shared by every CPU: one Cache plus,
// per line slot, the set of CPUs whose L1s may hold copies of the
// line. The sharer sets are conservative supersets of actual L1
// residency (an L1 eviction does not clear its bit); they exist to
// bound the cross-CPU work of inclusion and write-invalidation, so
// invalidating a non-holder is a harmless no-op. Coherence needs no
// directory here — the line's single copy, its dirty bit and its
// shared mark all live in the one cache — which is why shared-topology
// machines run without the machine layer's invalidate directory.
type SharedL2 struct {
	cache *Cache
	ncpu  int
	nw    int // sharer-mask words per slot
	// sharers[i*nw : (i+1)*nw] is slot i's CPU set. Only SharedL2
	// methods write it, so after Cache.Insert displaces a victim the
	// filled slot's entry still holds the *victim's* sharers — exactly
	// the set whose L1s need the inclusion invalidation.
	sharers []uint64
	// l1i/l1d are the per-CPU first-level caches, registered by
	// NewHierarchyShared.
	l1i, l1d []*Cache
}

// NewSharedL2 builds a shared L2 of the given (already topology-
// adjusted) geometry for ncpu processors.
func NewSharedL2(cfg Config, ncpu int) *SharedL2 {
	if ncpu < 1 || ncpu > 256 {
		// Invariant: machine.Config.Validate bounds the CPU count.
		panic(fmt.Sprintf("cachesim: shared L2 for %d CPUs", ncpu))
	}
	c := New(cfg)
	return &SharedL2{
		cache:   c,
		ncpu:    ncpu,
		nw:      (ncpu + 63) / 64,
		sharers: make([]uint64, cfg.Lines()*((ncpu+63)/64)),
		l1i:     make([]*Cache, ncpu),
		l1d:     make([]*Cache, ncpu),
	}
}

// Cache returns the underlying shared cache (stats, residency probes,
// listener registration).
func (sh *SharedL2) Cache() *Cache { return sh.cache }

// attach registers cpu's L1 caches for cross-CPU inclusion work.
func (sh *SharedL2) attach(cpu int, l1i, l1d *Cache) {
	sh.l1i[cpu] = l1i
	sh.l1d[cpu] = l1d
}

// mask returns slot i's sharer words.
func (sh *SharedL2) mask(i int) []uint64 {
	return sh.sharers[i*sh.nw : (i+1)*sh.nw : (i+1)*sh.nw]
}

func maskCount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// invalidateL1Span drops the byte span [line, line+span) from the L1s
// of every CPU in w except skip (pass -1 to invalidate everywhere).
// Order matches the private hierarchy's inclusion path: per CPU, L1I
// before L1D; CPUs ascending.
func (sh *SharedL2) invalidateL1Span(w []uint64, skip int, line mem.Addr, span uint64) {
	for wi, word := range w {
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if i == skip {
				continue
			}
			sh.l1i[i].InvalidateSpan(line, span)
			sh.l1d[i].InvalidateSpan(line, span)
		}
	}
}

// readBy records a read hit by cpu on the resident line containing a
// (see readHit).
func (sh *SharedL2) readBy(cpu int, a mem.Addr) {
	if i := sh.cache.find(sh.cache.LineOf(a)); i >= 0 { // invariant: called only after a hit
		sh.readHit(cpu, i)
	}
}

// readHit records a read hit by cpu on the resident line in slot i:
// the CPU joins the line's sharer set, and a line referenced from more
// than one CPU carries the coherence "shared" mark (the analogue of
// the private topology's directory-driven SetShared).
func (sh *SharedL2) readHit(cpu, i int) {
	w := sh.mask(i)
	w[uint(cpu)>>6] |= 1 << (uint(cpu) & 63)
	if maskCount(w) > 1 {
		sh.cache.slots[i].key |= keyShared
	}
}

// storeBy resolves a write hit by cpu on the resident line containing
// a (see storeHit).
func (sh *SharedL2) storeBy(cpu int, a mem.Addr) {
	line := sh.cache.LineOf(a)
	if i := sh.cache.find(line); i >= 0 { // invariant: called only after a hit
		sh.storeHit(cpu, i, line)
	}
}

// storeHit resolves a write hit by cpu on the resident line in slot i:
// every other sharer's L1 copies are invalidated (write-invalidate,
// but in-cache — the single L2 copy survives, already marked dirty by
// the lookup), and the writer becomes the sole sharer. The sharer set,
// not the shared mark, decides who is invalidated: a line whose only
// sharer is another CPU carries no mark, yet that CPU's L1 copies must
// still go.
func (sh *SharedL2) storeHit(cpu, i int, line mem.Addr) {
	w := sh.mask(i)
	sh.invalidateL1Span(w, cpu, line, uint64(sh.cache.cfg.LineSize))
	clear(w)
	w[uint(cpu)>>6] = 1 << (uint(cpu) & 63)
	sh.cache.slots[i].key &^= keyShared
}

// fill inserts the line containing a on behalf of (cpu, tid) after a
// miss (see filled).
func (sh *SharedL2) fill(cpu int, tid mem.ThreadID, a mem.Addr, write bool) Victim {
	victim := sh.cache.Insert(tid, a, write, false)
	sh.filled(cpu, sh.cache.find(sh.cache.LineOf(a)), victim)
	return victim
}

// filled completes cpu's fill of slot i, which displaced victim,
// maintaining inclusion across every CPU: the victim's span is
// invalidated from the L1s of all its recorded sharers, and the filler
// becomes the line's sole sharer. Slot i's sharer words still hold the
// victim's set when this runs (the side array is written only by
// SharedL2 methods), so this is precisely the cross-CPU inclusion
// invalidation.
func (sh *SharedL2) filled(cpu, i int, victim Victim) {
	w := sh.mask(i)
	if victim.Valid {
		sh.invalidateL1Span(w, -1, victim.Line, uint64(sh.cache.cfg.LineSize))
	}
	clear(w)
	w[uint(cpu)>>6] = 1 << (uint(cpu) & 63)
}

// InvalidateLine removes the line containing a from the shared cache
// and, via the sharer set, from every CPU's L1s. It reports whether
// the shared copy was present and dirty.
func (sh *SharedL2) InvalidateLine(a mem.Addr) (present, dirty bool) {
	line := sh.cache.LineOf(a)
	i := sh.cache.find(line)
	if i < 0 {
		return false, false
	}
	w := sh.mask(i)
	present, dirty = sh.cache.Invalidate(line)
	sh.invalidateL1Span(w, -1, line, uint64(sh.cache.cfg.LineSize))
	for k := range w {
		w[k] = 0
	}
	return present, dirty
}

// Flush empties the shared cache and every sharer set. Idempotent —
// the machine calls it once per CPU hierarchy flush.
func (sh *SharedL2) Flush() {
	sh.cache.Flush()
	for i := range sh.sharers {
		sh.sharers[i] = 0
	}
}

// Sharers returns the recorded sharer set of the line containing a (a
// conservative superset of actual L1 residency, as one bit per CPU in
// ascending word order) and whether the line is resident. Diagnostics
// and coherence checking.
func (sh *SharedL2) Sharers(a mem.Addr) (mask [4]uint64, present bool) {
	i := sh.cache.find(sh.cache.LineOf(a))
	if i < 0 {
		return mask, false
	}
	copy(mask[:], sh.mask(i))
	return mask, true
}
