// Package snapshot defines the versioned, checksummed on-disk format
// for engine checkpoints. A checkpoint is a receipt, not a payload: it
// holds the run's identity (config, policy, geometry, seed), its
// checkpoint schedule, the step cursor and virtual clock, the
// observability digest, and one 64-bit digest per section of the
// engine state at that cursor — the engine scalars, the per-CPU
// clocks and counters, the pending timers, the thread table, the
// scheduler's footprint entries S/SLast/M0/priority and queues, the
// dependency graph G with its q weights, and the counter sanitizer
// and quarantine state.
//
// The engine is a deterministic sequential simulation, so nothing is
// ever restored from a snapshot (thread stacks live on Go goroutines
// and cannot be captured anyway): a resumed run re-executes
// deterministically from the start, and when it reaches the
// snapshot's step cursor it seals its live state and compares the
// receipts. A match proves the resumed run is the same run — every
// later golden, trace and export is then byte-identical to an
// uninterrupted run by construction — while any divergence (different
// binary, different flags, corrupted file) fails loudly, naming the
// divergent field or state section, instead of silently producing
// different science. docs/SNAPSHOT.md is the format reference.
//
// Files are written atomically (temp file + fsync + rename, via
// internal/fsatomic), so a process killed mid-checkpoint leaves either
// the previous complete snapshot or the new one — never a torn file.
// Load validates the magic, version, length and CRC before reading
// the receipt, bounds every count by the bytes present, and returns
// descriptive errors — it never panics on malformed input
// (FuzzLoadSnapshot pins this, mirroring the internal/trace fuzz
// pattern).
package snapshot

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/fsatomic"
)

// Version is the current snapshot format version. Bump it on any
// change to the receipt layout or to what a section digest covers;
// Load refuses other versions with a descriptive error (see
// docs/SNAPSHOT.md for the compatibility policy: snapshots are
// re-creatable from the run config, so there is no cross-version
// migration — a version skew means "re-run").
const Version = 2

// magic identifies a snapshot file. The trailing \r\n catches ASCII
// transfer mangling, as PNG's magic does.
var magic = [8]byte{'A', 'T', 'S', 'N', 'A', 'P', '\r', '\n'}

// crcTable is the ECMA polynomial table used for the payload checksum
// and the section digests.
var crcTable = crc64.MakeTable(crc64.ECMA)

// maxPayload bounds the receipt payload Load accepts. A receipt is a
// few hundred bytes; the bound leaves room for long config records.
const maxPayload = 1 << 20

// KV is one runner-level configuration pair recorded in the snapshot
// (application name, policy, scale, fault spec, ...). The engine
// treats it as opaque; resume compares it so a snapshot cannot be
// silently applied to a differently-configured run.
type KV struct {
	K, V string
}

// Section names one digested part of the engine state.
type Section int

// The sections, in digest order.
const (
	SectionEngine  Section = iota // NextID, Live, TimerSeq, EngineRNG, ModelFLOPs
	SectionCPUs                   // Capture.CPUs
	SectionTimers                 // Capture.Timers
	SectionThreads                // Capture.Threads
	SectionSched                  // Capture.Sched
	SectionGraph                  // Capture.Graph
	SectionHealth                 // Capture.Health
	NumSections
)

var sectionNames = [NumSections]string{"engine", "cpus", "timers", "threads", "sched", "graph", "health"}

func (s Section) String() string { return sectionNames[s] }

// State is one checkpoint receipt. All fields are persisted; two
// receipts are "the same state" exactly when Diff finds nothing.
type State struct {
	// Config is the runner-level run configuration, sorted by key.
	Config []KV
	// Policy/NCPU/CacheLines/Seed pin the engine geometry a resume
	// must reproduce.
	Policy     string
	NCPU       int32
	CacheLines int64
	Seed       uint64

	// CheckpointEvery is the virtual-cycle checkpoint interval the run
	// was using; NextCheckpoint the boundary after this one. Resume
	// inherits both so a resumed run writes the same later
	// checkpoints an uninterrupted run would. They are writer
	// metadata, not simulation state, so no digest covers them.
	CheckpointEvery uint64
	NextCheckpoint  uint64

	// Steps is the engine-step cursor the capture was taken at (top of
	// the run loop, before the step executes); Now the engine's global
	// virtual clock there.
	Steps uint64
	Now   uint64

	// ObsDigest is a 64-bit FNV-1a digest of the observability state
	// (metric registries and event rings), or 0 when observability is
	// off.
	ObsDigest uint64
	// Digests holds, per Section, the CRC64 of that section's
	// canonical encoding in the Capture the receipt was sealed from.
	Digests [NumSections]uint64
}

// Capture is the engine state at a boundary that a receipt keeps only
// as section digests: everything a resume re-derives by replay.
type Capture struct {
	NextID   int64
	Live     int32
	TimerSeq uint64
	// EngineRNG is the engine's own SplitMix64 state.
	EngineRNG uint64
	// ModelFLOPs is the model's floating-point operation count.
	ModelFLOPs uint64

	CPUs    []CPUState
	Timers  []TimerState
	Threads []ThreadState
	Sched   SchedState
	Graph   []GraphEdge
	Health  []HealthState
}

// CPUState is one processor's captured state.
type CPUState struct {
	// Clock is the CPU's virtual cycle clock.
	Clock uint64
	// Misses is the cumulative 64-bit E-cache miss count m(t).
	Misses uint64
	// Refs/Hits are the wrapped 32-bit PIC readings at capture.
	Refs, Hits uint32
	// BaseRefs/BaseHits are the PIC readings at the last dispatch on
	// this CPU (the engine's picBase — the open interval's start).
	BaseRefs, BaseHits uint32
	// Idle is the accumulated parked cycles; Dispatches the
	// context-switch count.
	Idle, Dispatches uint64
	// Parked reports whether the CPU is idle-parked.
	Parked bool
	// Running is the thread installed on the CPU, or -1.
	Running int64
}

// TimerState is one pending sleep deadline.
type TimerState struct {
	WakeAt, Seq uint64
	Thread      int64
}

// ThreadState is one thread's engine-level state. The thread's stack
// is not captured (resume re-executes the body); everything the engine
// tracks about it is.
type ThreadState struct {
	ID     int64
	Name   string
	Status uint8
	// BlockedOn names what a blocked thread waits for ("" otherwise) —
	// it captures the wait-for relationships the sync objects hold.
	BlockedOn string
	CPU       int32
	Cycles    uint64
	// DispatchClock/DispatchCount/DispatchMisses/ReadyClock mirror the
	// engine's per-thread accounting fields of the same names.
	DispatchClock  uint64
	DispatchCount  uint64
	DispatchMisses uint64
	ReadyClock     uint64
	// RNG is the thread's SplitMix64 stream state.
	RNG uint64
	// Joiners are the threads blocked in Join on this one.
	Joiners []int64
}

// SchedEntry is one (thread, CPU) footprint record of the scheduler.
// Floats are digested as their bits.
type SchedEntry struct {
	CPU       int32
	S         float64
	SLast     float64
	M0        uint64
	Prio      float64
	DispatchS float64
	DispatchM uint64
	HeapIdx   int32
}

// SchedThread is the scheduler's view of one thread.
type SchedThread struct {
	ID       int64
	Runnable bool
	Running  bool
	InGlobal bool
	InSpawn  bool
	Entries  []SchedEntry
}

// GlobalEntry is one global-FIFO position (including lazily deleted
// ones — the raw queue is deterministic and is captured as stored).
type GlobalEntry struct {
	Thread int64
	Stamp  uint64
}

// SchedState is the complete scheduler capture.
type SchedState struct {
	DispatchCount uint64
	Escapes       uint64
	// Ops are the data-structure work counters in declaration order:
	// pushes, pops, fixes, removes, queue ops, steals, prio updates,
	// demotions.
	Ops [8]uint64
	// Quarantine is the per-CPU quarantine flag (mirrors Health but is
	// the scheduler's own view; the two must agree).
	Quarantine []bool
	// Global is the global FIFO from its head cursor onward.
	Global []GlobalEntry
	// Spawn is each CPU's spawn stack (raw, oldest first).
	Spawn [][]int64
	// Heaps is each CPU's priority heap in array order.
	Heaps [][]int64
	// Threads is sorted by ID.
	Threads []SchedThread
}

// GraphEdge is one dependency edge with its sharing coefficient.
type GraphEdge struct {
	From, To int64
	Q        float64
}

// HealthState is one CPU's sanitizer/quarantine state machine capture.
type HealthState struct {
	OK, Suspect, Rejected   uint64
	Quarantines, Recoveries uint64
	StreakRejected          int64
	StreakClean             int64
	Frozen                  int64
	Quarantined             bool
}

// ConfigValue returns the value of config key k, or "".
func (s *State) ConfigValue(k string) string {
	for _, kv := range s.Config {
		if kv.K == k {
			return kv.V
		}
	}
	return ""
}

// Seal sets s.Digests from c, one CRC64 per section.
func (s *State) Seal(c *Capture) {
	e := newEncoder()
	defer e.release()
	c.walk(e)
	s.Digests = e.sums
}

// Fingerprint is the CRC64 of the receipt's encoding — a compact
// identity for "this exact state" (atsimd reports it as a session's
// result, and the server's crash tests compare it against
// uninterrupted control twins).
func (s *State) Fingerprint() uint64 {
	e := s.encode()
	defer e.release()
	return crc64.Checksum(e.buf, crcTable)
}

// Save writes the snapshot to w: magic, version, payload length,
// payload CRC64, payload.
func (s *State) Save(w io.Writer) error {
	e := s.encode()
	defer e.release()
	var hdr [28]byte
	copy(hdr[0:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(e.buf)))
	binary.LittleEndian.PutUint64(hdr[20:28], crc64.Checksum(e.buf, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if _, err := w.Write(e.buf); err != nil {
		return fmt.Errorf("snapshot: write payload: %w", err)
	}
	return nil
}

// WriteFile atomically writes the snapshot to path (temp + fsync +
// rename): a kill at any instant leaves either the previous complete
// snapshot or this one.
func (s *State) WriteFile(path string) error {
	return fsatomic.WriteFile(path, func(w io.Writer) error { return s.Save(w) })
}

// Load reads and validates a snapshot. Errors are descriptive
// (truncation offsets, version skew, checksum mismatch); malformed
// input never panics. The payload is read as its bytes arrive, so
// memory follows the bytes present, not the length the header claims.
func Load(r io.Reader) (*State, error) {
	var hdr [28]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: header: %w (file truncated or not a snapshot)", err)
	}
	if !bytes.Equal(hdr[0:8], magic[:]) {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a snapshot file)", hdr[0:8])
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version != Version {
		return nil, fmt.Errorf("snapshot: format version %d; this binary reads version %d — re-run from the original configuration instead of resuming", version, Version)
	}
	// Read up to the bound as bytes arrive: a stream shorter than its
	// claim is truncated, whatever it claims.
	size := binary.LittleEndian.Uint64(hdr[12:20])
	want := min(size, maxPayload)
	payload, err := io.ReadAll(io.LimitReader(r, int64(want)))
	if err == nil && uint64(len(payload)) < want {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: payload truncated at byte %d of %d: %w", len(payload), size, err)
	}
	if size > maxPayload {
		return nil, fmt.Errorf("snapshot: payload length %d exceeds the %d-byte bound", size, maxPayload)
	}
	sum := binary.LittleEndian.Uint64(hdr[20:28])
	if got := crc64.Checksum(payload, crcTable); got != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch (stored %016x, computed %016x): file corrupted", sum, got)
	}
	d := decoder{buf: payload}
	st := &State{}
	for n := d.count(); n > 0 && d.err == nil; n-- {
		st.Config = append(st.Config, KV{K: d.str(), V: d.str()})
	}
	st.Policy = d.str()
	st.NCPU = int32(d.word(4))
	st.CacheLines = int64(d.word(8))
	st.Seed = d.word(8)
	st.CheckpointEvery = d.word(8)
	st.NextCheckpoint = d.word(8)
	st.Steps = d.word(8)
	st.Now = d.word(8)
	st.ObsDigest = d.word(8)
	for i := range st.Digests {
		st.Digests[i] = d.word(8)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after the receipt at offset %d", len(d.buf)-d.off, d.off)
	}
	return st, nil
}

// LoadFile loads a snapshot from path.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	st, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return st, nil
}

// Equal reports whether a and b are the same state: Diff finds
// nothing between them.
func Equal(a, b *State) bool { return Diff(a, b) == nil }

// Diff returns nil when the receipts agree, or an error naming the
// first divergence: a config key as by SameConfig, a scalar field by
// name with both values ("snapshot: Now = 250001, live 250002"), or a
// state section by name with both digests ("snapshot: section
// threads = 0x…, live 0x…"). It is the message behind
// resume-verification failures.
func Diff(stored, live *State) error {
	if err := cmp.Or(
		SameConfig(stored.Config, live.Config),
		differ("Policy", stored.Policy, live.Policy),
		differ("NCPU", stored.NCPU, live.NCPU),
		differ("CacheLines", stored.CacheLines, live.CacheLines),
		differ("Seed", stored.Seed, live.Seed),
		differ("CheckpointEvery", stored.CheckpointEvery, live.CheckpointEvery),
		differ("NextCheckpoint", stored.NextCheckpoint, live.NextCheckpoint),
		differ("Steps", stored.Steps, live.Steps),
		differ("Now", stored.Now, live.Now),
		differ("ObsDigest", stored.ObsDigest, live.ObsDigest),
	); err != nil {
		return err
	}
	for sec, d := range stored.Digests {
		if l := live.Digests[sec]; d != l {
			return fmt.Errorf("snapshot: section %s = 0x%016x, live 0x%016x", Section(sec), d, l)
		}
	}
	return nil
}

func differ[T comparable](name string, stored, live T) error {
	if stored == live {
		return nil
	}
	return fmt.Errorf("snapshot: %s = %v, live %v", name, stored, live)
}

// SameConfig compares two config records key by key, each in key
// order (the inputs are left as they are), and names the first
// position where they differ: "snapshot: config scale="1", live
// scale="2"". A missing or repeated key is a difference like any
// other; a record that runs out shows an empty pair.
func SameConfig(stored, live []KV) error {
	a, b := slices.Clone(stored), slices.Clone(live)
	for _, kvs := range [][]KV{a, b} {
		slices.SortStableFunc(kvs, func(x, y KV) int { return cmp.Compare(x.K, y.K) })
	}
	for i := 0; i < len(a) || i < len(b); i++ {
		var s, l KV
		if i < len(a) {
			s = a[i]
		}
		if i < len(b) {
			l = b[i]
		}
		if s != l {
			return fmt.Errorf("snapshot: config %s=%q, live %s=%q", s.K, s.V, l.K, l.V)
		}
	}
	return nil
}

// ---- the encoding ----
//
// Receipts and sections share one little-endian encoding: fixed-width
// integers, bools as one 0/1 byte, float64 as IEEE bits, strings and
// slices with uvarint length prefixes. The walk methods below are the
// only place either layout is written down: each visits its fields
// exactly once, in declaration order. The encoding is canonical (one
// value has exactly one encoding), which is what lets a section's
// CRC64 stand for its contents.

// walk encodes the receipt. Load reads the same fields in this order.
func (s *State) walk(e *encoder) {
	list(e, s.Config, (*KV).walk)
	e.str(s.Policy)
	fixed(e, s.NCPU)
	fixed(e, s.CacheLines)
	fixed(e, s.Seed)
	fixed(e, s.CheckpointEvery)
	fixed(e, s.NextCheckpoint)
	fixed(e, s.Steps)
	fixed(e, s.Now)
	fixed(e, s.ObsDigest)
	for _, d := range s.Digests {
		fixed(e, d)
	}
}

// walk encodes the capture section by section, sealing each into its
// digest.
func (c *Capture) walk(e *encoder) {
	fixed(e, c.NextID)
	fixed(e, c.Live)
	fixed(e, c.TimerSeq)
	fixed(e, c.EngineRNG)
	fixed(e, c.ModelFLOPs)
	e.seal(SectionEngine)
	list(e, c.CPUs, (*CPUState).walk)
	e.seal(SectionCPUs)
	list(e, c.Timers, (*TimerState).walk)
	e.seal(SectionTimers)
	list(e, c.Threads, (*ThreadState).walk)
	e.seal(SectionThreads)
	c.Sched.walk(e)
	e.seal(SectionSched)
	list(e, c.Graph, (*GraphEdge).walk)
	e.seal(SectionGraph)
	list(e, c.Health, (*HealthState).walk)
	e.seal(SectionHealth)
}

func (kv *KV) walk(e *encoder) {
	e.str(kv.K)
	e.str(kv.V)
}

func (p *CPUState) walk(e *encoder) {
	fixed(e, p.Clock)
	fixed(e, p.Misses)
	fixed(e, p.Refs)
	fixed(e, p.Hits)
	fixed(e, p.BaseRefs)
	fixed(e, p.BaseHits)
	fixed(e, p.Idle)
	fixed(e, p.Dispatches)
	e.bool(p.Parked)
	fixed(e, p.Running)
}

func (t *TimerState) walk(e *encoder) {
	fixed(e, t.WakeAt)
	fixed(e, t.Seq)
	fixed(e, t.Thread)
}

func (t *ThreadState) walk(e *encoder) {
	fixed(e, t.ID)
	e.str(t.Name)
	fixed(e, t.Status)
	e.str(t.BlockedOn)
	fixed(e, t.CPU)
	fixed(e, t.Cycles)
	fixed(e, t.DispatchClock)
	fixed(e, t.DispatchCount)
	fixed(e, t.DispatchMisses)
	fixed(e, t.ReadyClock)
	fixed(e, t.RNG)
	list(e, t.Joiners, walkInt64)
}

func (s *SchedState) walk(e *encoder) {
	fixed(e, s.DispatchCount)
	fixed(e, s.Escapes)
	for _, op := range s.Ops {
		fixed(e, op)
	}
	list(e, s.Quarantine, walkBool)
	list(e, s.Global, (*GlobalEntry).walk)
	list(e, s.Spawn, walkInt64s)
	list(e, s.Heaps, walkInt64s)
	list(e, s.Threads, (*SchedThread).walk)
}

func (g *GlobalEntry) walk(e *encoder) {
	fixed(e, g.Thread)
	fixed(e, g.Stamp)
}

func (t *SchedThread) walk(e *encoder) {
	fixed(e, t.ID)
	e.bool(t.Runnable)
	e.bool(t.Running)
	e.bool(t.InGlobal)
	e.bool(t.InSpawn)
	list(e, t.Entries, (*SchedEntry).walk)
}

func (s *SchedEntry) walk(e *encoder) {
	fixed(e, s.CPU)
	e.f64(s.S)
	e.f64(s.SLast)
	fixed(e, s.M0)
	e.f64(s.Prio)
	e.f64(s.DispatchS)
	fixed(e, s.DispatchM)
	fixed(e, s.HeapIdx)
}

func (g *GraphEdge) walk(e *encoder) {
	fixed(e, g.From)
	fixed(e, g.To)
	e.f64(g.Q)
}

func (h *HealthState) walk(e *encoder) {
	fixed(e, h.OK)
	fixed(e, h.Suspect)
	fixed(e, h.Rejected)
	fixed(e, h.Quarantines)
	fixed(e, h.Recoveries)
	fixed(e, h.StreakRejected)
	fixed(e, h.StreakClean)
	fixed(e, h.Frozen)
	e.bool(h.Quarantined)
}

func walkBool(v *bool, e *encoder)      { e.bool(*v) }
func walkInt64(v *int64, e *encoder)    { fixed(e, *v) }
func walkInt64s(v *[]int64, e *encoder) { list(e, *v, walkInt64) }

// encoder appends a walk's fields to buf; seal turns what has
// accumulated into a section digest.
type encoder struct {
	buf  []byte
	sums [NumSections]uint64
}

// encoders recycles encoders and their buffers: the walk hands its
// encoder to element walkers through func values, so an encoder always
// lives on the heap, and every checkpoint seals a capture.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

func newEncoder() *encoder {
	e := encoders.Get().(*encoder)
	*e = encoder{buf: e.buf[:0]}
	return e
}

// release recycles e, whose buf is dead from here on; buffers over
// 1 MiB are left to the collector.
func (e *encoder) release() {
	if cap(e.buf) <= 1<<20 {
		encoders.Put(e)
	}
}

func (s *State) encode() *encoder {
	e := newEncoder()
	s.walk(e)
	return e
}

// seal records the CRC64 of the bytes since the previous seal as
// section sec's digest.
func (e *encoder) seal(sec Section) {
	e.sums[sec] = crc64.Checksum(e.buf, crcTable)
	e.buf = e.buf[:0]
}

// list encodes a slice: its uvarint count, then each element by elem.
func list[T any](e *encoder, s []T, elem func(*T, *encoder)) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	for i := range s {
		elem(&s[i], e)
	}
}

// fixed encodes an integer as its width in little-endian bytes; signed
// values travel as two's complement.
func fixed[T uint8 | int32 | uint32 | int64 | uint64](e *encoder, v T) {
	switch unsafe.Sizeof(v) {
	case 1:
		e.buf = append(e.buf, byte(v))
	case 4:
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
	default:
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
	}
}

func (e *encoder) f64(v float64) { fixed(e, math.Float64bits(v)) }

func (e *encoder) bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	fixed(e, b)
}

func (e *encoder) str(v string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// decoder reads a receipt payload with every read bounds-checked; the
// first error sticks and turns later reads into zeros.
type decoder struct {
	buf []byte
	off int
	err error
}

// take consumes the next n bytes, or returns nil once a read failed.
func (d *decoder) take(n int) []byte {
	if d.err == nil && n > len(d.buf)-d.off {
		d.err = fmt.Errorf("snapshot: need %d bytes at payload offset %d, %d remain", n, d.off, len(d.buf)-d.off)
	}
	if d.err != nil {
		return nil
	}
	d.off += n
	return d.buf[d.off-n : d.off]
}

// word reads a 4- or 8-byte little-endian integer.
func (d *decoder) word(size int) uint64 {
	switch b := d.take(size); len(b) {
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads a config count or string length, rejecting one above
// the bytes left: no receipt holds an element in less than a byte.
func (d *decoder) count() int {
	v, k := binary.Uvarint(d.buf[d.off:])
	if d.err == nil && (k <= 0 || v > uint64(len(d.buf)-d.off-k)) {
		d.err = fmt.Errorf("snapshot: bad count at payload offset %d (%d bytes remain)", d.off, len(d.buf)-d.off)
	}
	if d.err != nil {
		return 0
	}
	d.off += k
	return int(v)
}

func (d *decoder) str() string { return string(d.take(d.count())) }
