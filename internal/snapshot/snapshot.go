// Package snapshot defines the versioned, checksummed on-disk format
// for engine checkpoints: one State value is a bit-exact capture of
// the complete locality-runtime state at a virtual-cycle boundary —
// the thread table and run states, the scheduler's footprint entries
// S/SLast/M0/priority and queue structures, the dependency graph G
// with its q weights, the counter sanitizer and quarantine state, the
// per-CPU virtual clocks, counters and pending timers, every RNG
// stream, and a digest of the observability registries.
//
// The engine is a deterministic sequential simulation, so a snapshot
// does not need to serialize thread stacks (which live on Go
// goroutines and cannot be captured): a resumed run re-executes
// deterministically from the start, and when it reaches the snapshot's
// step cursor the live state is compared against the capture
// bit-for-bit. A match proves the resumed run is the same run — every
// later golden, trace and export is then byte-identical to an
// uninterrupted run by construction — while any divergence (different
// binary, different flags, corrupted file) fails loudly with a
// field-level diff instead of silently producing different science.
// docs/SNAPSHOT.md is the format reference.
//
// Files are written atomically (temp file + fsync + rename, via
// internal/fsatomic), so a process killed mid-checkpoint leaves either
// the previous complete snapshot or the new one — never a torn file.
// Load validates the magic, version, length and CRC before decoding,
// decodes with bounds checks everywhere, and returns descriptive
// errors — it never panics on malformed input (FuzzLoadSnapshot pins
// this, mirroring the internal/trace fuzz pattern).
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/fsatomic"
)

// Version is the current snapshot format version. Bump it on any
// change to the payload layout; Load refuses other versions with a
// descriptive error (see docs/SNAPSHOT.md for the compatibility
// policy: snapshots are re-creatable from the run config, so there is
// no cross-version migration — a version skew means "re-run").
const Version = 1

// magic identifies a snapshot file. The trailing \r\n catches ASCII
// transfer mangling, as PNG's magic does.
var magic = [8]byte{'A', 'T', 'S', 'N', 'A', 'P', '\r', '\n'}

// crcTable is the ECMA polynomial table used for the payload checksum.
var crcTable = crc64.MakeTable(crc64.ECMA)

// maxStringLen bounds any decoded string (names, config values,
// diagnostics) so a hostile length prefix cannot drive a huge
// allocation.
const maxStringLen = 1 << 20

// KV is one runner-level configuration pair recorded in the snapshot
// (application name, policy, scale, fault spec, ...). The engine
// treats it as opaque; resume compares it so a snapshot cannot be
// silently applied to a differently-configured run.
type KV struct {
	K, V string
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
// Floats are compared bit-exactly by Diff.
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

// State is one complete engine capture. All fields participate in the
// canonical encoding; two States are "the same state" exactly when
// their Encode bytes are equal.
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
	// checkpoints an uninterrupted run would.
	CheckpointEvery uint64
	NextCheckpoint  uint64

	// Steps is the engine-step cursor the capture was taken at (top of
	// the run loop, before the step executes); Now the engine's global
	// virtual clock there.
	Steps uint64
	Now   uint64

	NextID   int64
	Live     int32
	TimerSeq uint64
	// EngineRNG is the engine's own SplitMix64 state.
	EngineRNG uint64

	CPUs    []CPUState
	Timers  []TimerState
	Threads []ThreadState
	Sched   SchedState
	Graph   []GraphEdge
	Health  []HealthState

	// ModelFLOPs is the model's floating-point operation count.
	ModelFLOPs uint64
	// ObsDigest is a 64-bit FNV-1a digest of the observability state
	// (metric registries and event rings), or 0 when observability is
	// off.
	ObsDigest uint64
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

// Fingerprint is the CRC64 of the canonical encoding — a compact
// identity for "this exact state" (the soak harness compares final
// fingerprints across kill/resume schedules).
func (s *State) Fingerprint() uint64 {
	c := s.encode()
	defer c.release()
	return crc64.Checksum(c.buf, crcTable)
}

// Save writes the snapshot to w: magic, version, payload length,
// payload CRC64, payload.
func (s *State) Save(w io.Writer) error {
	c := s.encode()
	defer c.release()
	var hdr [28]byte
	copy(hdr[0:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(c.buf)))
	binary.LittleEndian.PutUint64(hdr[20:28], crc64.Checksum(c.buf, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if _, err := w.Write(c.buf); err != nil {
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
// input never panics. The payload buffer grows only as bytes arrive,
// so memory follows the bytes present, not the length the header
// claims.
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
	size := binary.LittleEndian.Uint64(hdr[12:20])
	const maxPayload = 1 << 31
	if size > maxPayload {
		return nil, fmt.Errorf("snapshot: payload length %d exceeds the %d-byte bound", size, maxPayload)
	}
	c := newCodec(true)
	defer c.release()
	buf := bytes.NewBuffer(c.buf)
	buf.Grow(int(min(size, 1<<16)) + bytes.MinRead)
	_, err := buf.ReadFrom(io.LimitReader(r, int64(size)))
	if c.buf = buf.Bytes(); err == nil && uint64(len(c.buf)) < size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: payload truncated at byte %d of %d: %w", len(c.buf), size, err)
	}
	want := binary.LittleEndian.Uint64(hdr[20:28])
	if got := crc64.Checksum(c.buf, crcTable); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch (stored %016x, computed %016x): file corrupted", want, got)
	}
	st := &State{}
	st.walk(c)
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(c.buf) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after state at offset %d", len(c.buf)-c.off, c.off)
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

// Equal reports whether a and b are the same state (canonical
// encodings are byte-equal; floats compare as bits).
func Equal(a, b *State) bool {
	ca, cb := a.encode(), b.encode()
	defer ca.release()
	defer cb.release()
	return bytes.Equal(ca.buf, cb.buf)
}

// Diff returns nil when the states are equal, or an error naming the
// first divergent field by its full path with both values, e.g.
// "snapshot: Threads[1].Cycles = 5000, live 5001". A slice of another
// length reports len(path); a float reports its value and bits. It is
// the message behind resume-verification failures.
func Diff(stored, live *State) error {
	if Equal(stored, live) {
		return nil
	}
	a, b := &codec{logging: true}, &codec{logging: true}
	stored.walk(a)
	live.walk(b)
	i := 0
	for i < len(a.buf) && i < len(b.buf) && a.buf[i] == b.buf[i] {
		i++
	}
	// Equal bytes before i mean the walks visited the same fields up to
	// there, so byte i lies in both payloads (neither canonical encoding
	// can be a prefix of the other) and in the same-numbered mark.
	j := sort.Search(len(a.marks), func(j int) bool { return a.marks[j].end > i })
	return fmt.Errorf("snapshot: %s = %s, live %s", a.marks[j].path, a.marks[j].value, b.marks[j].value)
}

// ---- the payload layout ----
//
// The payload is a flat little-endian stream: fixed-width integers,
// bools as one 0/1 byte, float64 as IEEE bits, strings and slices
// with uvarint length prefixes. The walk methods below are the only
// place the layout is written down: each visits its fields exactly
// once, in declaration order, and the same walk encodes, decodes and
// names Diff's first divergence. The encoding is canonical (one State
// value has exactly one encoding), which is what lets verification
// compare encoded bytes.

// walk visits every payload field of the state.
func (s *State) walk(c *codec) {
	list(c, "Config", &s.Config, (*KV).walk)
	c.str("Policy", &s.Policy)
	fixed(c, "NCPU", &s.NCPU)
	fixed(c, "CacheLines", &s.CacheLines)
	fixed(c, "Seed", &s.Seed)
	fixed(c, "CheckpointEvery", &s.CheckpointEvery)
	fixed(c, "NextCheckpoint", &s.NextCheckpoint)
	fixed(c, "Steps", &s.Steps)
	fixed(c, "Now", &s.Now)
	fixed(c, "NextID", &s.NextID)
	fixed(c, "Live", &s.Live)
	fixed(c, "TimerSeq", &s.TimerSeq)
	fixed(c, "EngineRNG", &s.EngineRNG)
	list(c, "CPUs", &s.CPUs, (*CPUState).walk)
	list(c, "Timers", &s.Timers, (*TimerState).walk)
	list(c, "Threads", &s.Threads, (*ThreadState).walk)
	old := c.enter("Sched", -1)
	s.Sched.walk(c)
	c.path = old
	list(c, "Graph", &s.Graph, (*GraphEdge).walk)
	list(c, "Health", &s.Health, (*HealthState).walk)
	fixed(c, "ModelFLOPs", &s.ModelFLOPs)
	fixed(c, "ObsDigest", &s.ObsDigest)
}

func (kv *KV) walk(c *codec) {
	c.str("K", &kv.K)
	c.str("V", &kv.V)
}

func (p *CPUState) walk(c *codec) {
	fixed(c, "Clock", &p.Clock)
	fixed(c, "Misses", &p.Misses)
	fixed(c, "Refs", &p.Refs)
	fixed(c, "Hits", &p.Hits)
	fixed(c, "BaseRefs", &p.BaseRefs)
	fixed(c, "BaseHits", &p.BaseHits)
	fixed(c, "Idle", &p.Idle)
	fixed(c, "Dispatches", &p.Dispatches)
	c.bool("Parked", &p.Parked)
	fixed(c, "Running", &p.Running)
}

func (t *TimerState) walk(c *codec) {
	fixed(c, "WakeAt", &t.WakeAt)
	fixed(c, "Seq", &t.Seq)
	fixed(c, "Thread", &t.Thread)
}

func (t *ThreadState) walk(c *codec) {
	fixed(c, "ID", &t.ID)
	c.str("Name", &t.Name)
	fixed(c, "Status", &t.Status)
	c.str("BlockedOn", &t.BlockedOn)
	fixed(c, "CPU", &t.CPU)
	fixed(c, "Cycles", &t.Cycles)
	fixed(c, "DispatchClock", &t.DispatchClock)
	fixed(c, "DispatchCount", &t.DispatchCount)
	fixed(c, "DispatchMisses", &t.DispatchMisses)
	fixed(c, "ReadyClock", &t.ReadyClock)
	fixed(c, "RNG", &t.RNG)
	list(c, "Joiners", &t.Joiners, walkInt64)
}

func (s *SchedState) walk(c *codec) {
	fixed(c, "DispatchCount", &s.DispatchCount)
	fixed(c, "Escapes", &s.Escapes)
	for i := range s.Ops {
		old := c.enter("Ops", i)
		fixed(c, "", &s.Ops[i])
		c.path = old
	}
	list(c, "Quarantine", &s.Quarantine, walkBool)
	list(c, "Global", &s.Global, (*GlobalEntry).walk)
	list(c, "Spawn", &s.Spawn, walkInt64s)
	list(c, "Heaps", &s.Heaps, walkInt64s)
	list(c, "Threads", &s.Threads, (*SchedThread).walk)
}

func (g *GlobalEntry) walk(c *codec) {
	fixed(c, "Thread", &g.Thread)
	fixed(c, "Stamp", &g.Stamp)
}

func (t *SchedThread) walk(c *codec) {
	fixed(c, "ID", &t.ID)
	c.bool("Runnable", &t.Runnable)
	c.bool("Running", &t.Running)
	c.bool("InGlobal", &t.InGlobal)
	c.bool("InSpawn", &t.InSpawn)
	list(c, "Entries", &t.Entries, (*SchedEntry).walk)
}

func (e *SchedEntry) walk(c *codec) {
	fixed(c, "CPU", &e.CPU)
	c.f64("S", &e.S)
	c.f64("SLast", &e.SLast)
	fixed(c, "M0", &e.M0)
	c.f64("Prio", &e.Prio)
	c.f64("DispatchS", &e.DispatchS)
	fixed(c, "DispatchM", &e.DispatchM)
	fixed(c, "HeapIdx", &e.HeapIdx)
}

func (g *GraphEdge) walk(c *codec) {
	fixed(c, "From", &g.From)
	fixed(c, "To", &g.To)
	c.f64("Q", &g.Q)
}

func (h *HealthState) walk(c *codec) {
	fixed(c, "OK", &h.OK)
	fixed(c, "Suspect", &h.Suspect)
	fixed(c, "Rejected", &h.Rejected)
	fixed(c, "Quarantines", &h.Quarantines)
	fixed(c, "Recoveries", &h.Recoveries)
	fixed(c, "StreakRejected", &h.StreakRejected)
	fixed(c, "StreakClean", &h.StreakClean)
	fixed(c, "Frozen", &h.Frozen)
	c.bool("Quarantined", &h.Quarantined)
}

func walkBool(v *bool, c *codec)      { c.bool("", v) }
func walkInt64(v *int64, c *codec)    { fixed(c, "", v) }
func walkInt64s(v *[]int64, c *codec) { list(c, "", v, walkInt64) }

// ---- the codec ----

// codec runs a walk one way. Encoding appends each field to buf and,
// when logging, marks where it ends with its path and value (Diff's
// attribution). Decoding fills a zero State from buf with every read
// bounds-checked; the first error sticks and stops all later reads.
type codec struct {
	decode, logging bool
	buf             []byte
	off             int // decode read offset
	err             error
	path            string // logging: the enclosing field's path
	marks           []mark
}

type mark struct {
	end         int // payload offset just past the field
	path, value string
}

// codecs recycles codecs and their buffers: the walk hands its codec to
// element walkers through func values, so a codec always lives on the
// heap, and Save, Load, Equal and Fingerprint run on every checkpoint.
var codecs = sync.Pool{New: func() any { return new(codec) }}

func newCodec(decode bool) *codec {
	c := codecs.Get().(*codec)
	*c = codec{decode: decode, buf: c.buf[:0]}
	return c
}

// release recycles c, whose buf is dead from here on; buffers over
// 1 MiB are left to the collector.
func (c *codec) release() {
	if cap(c.buf) <= 1<<20 {
		codecs.Put(c)
	}
}

func (s *State) encode() *codec {
	c := newCodec(false)
	s.walk(c)
	return c
}

// list codes a slice: its uvarint count, then each element by elem.
// Decoding bounds the count by the bytes left (every element takes at
// least one) and appends one element at a time until the first error,
// so allocation stays bounded by the payload actually present; an
// empty slice decodes as nil.
func list[T any](c *codec, name string, s *[]T, elem func(*T, *codec)) {
	n := len(*s)
	if c.decode {
		n = c.count()
	} else if c.buf = binary.AppendUvarint(c.buf, uint64(n)); c.logging {
		c.marks = append(c.marks, mark{len(c.buf), "len(" + join(c.path, name) + ")", strconv.Itoa(n)})
	}
	for i := 0; i < n && c.err == nil; i++ {
		if c.decode {
			var zero T
			*s = append(*s, zero)
		}
		old := c.enter(name, i)
		elem(&(*s)[i], c)
		c.path = old
	}
}

// enter descends into field name — element i of it when i >= 0 — and
// returns the path to restore on the way out. Paths are built only
// when logging.
func (c *codec) enter(name string, i int) string {
	old := c.path
	if c.logging {
		c.path = join(old, name)
		if i >= 0 {
			c.path += "[" + strconv.Itoa(i) + "]"
		}
	}
	return old
}

func join(path, name string) string {
	if path == "" || name == "" {
		return path + name
	}
	return path + "." + name
}

// note marks the field just encoded; call it only when logging.
func (c *codec) note(name, value string) {
	c.marks = append(c.marks, mark{len(c.buf), join(c.path, name), value})
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("snapshot: "+format+" (payload offset %d)", append(args, c.off)...)
	}
}

// word codes the low size bytes (1, 4 or 8) of w little-endian and
// returns the value decoded (w itself when encoding, 0 after an error).
func (c *codec) word(size int, w uint64) uint64 {
	if !c.decode {
		switch size {
		case 1:
			c.buf = append(c.buf, byte(w))
		case 4:
			c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(w))
		default:
			c.buf = binary.LittleEndian.AppendUint64(c.buf, w)
		}
		return w
	}
	if c.err != nil || len(c.buf)-c.off < size {
		c.fail("need %d bytes, %d remain", size, len(c.buf)-c.off)
		return 0
	}
	b := c.buf[c.off:]
	c.off += size
	switch size {
	case 1:
		return uint64(b[0])
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// fixed codes an integer field as its width in little-endian bytes;
// signed values travel as two's complement.
func fixed[T uint8 | int32 | uint32 | int64 | uint64](c *codec, name string, v *T) {
	if w := c.word(int(unsafe.Sizeof(*v)), uint64(*v)); c.decode {
		*v = T(w)
	} else if c.logging {
		c.note(name, fmt.Sprint(*v))
	}
}

func (c *codec) f64(name string, v *float64) {
	if w := c.word(8, math.Float64bits(*v)); c.decode {
		*v = math.Float64frombits(w)
	} else if c.logging {
		c.note(name, fmt.Sprintf("%v (bits %#016x)", *v, w))
	}
}

// bool codes a bool as one 0/1 byte; decoding rejects any other byte.
func (c *codec) bool(name string, v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if fixed(c, name, &b); c.decode && b > 1 {
		c.fail("bool byte %d", b)
	} else if c.decode {
		*v = b == 1
	}
}

// count decodes a slice or string length, rejecting one above the
// bytes left: no valid payload holds an element in less than a byte.
func (c *codec) count() int {
	v, k := binary.Uvarint(c.buf[c.off:])
	if c.err != nil || k <= 0 {
		c.fail("bad varint count")
		return 0
	}
	c.off += k
	if remain := len(c.buf) - c.off; v > uint64(remain) {
		c.fail("count %d exceeds remaining payload (%d bytes)", v, remain)
		return 0
	}
	return int(v)
}

func (c *codec) str(name string, v *string) {
	if !c.decode {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*v)))
		c.buf = append(c.buf, *v...)
		if c.logging {
			c.note(name, strconv.Quote(*v))
		}
		return
	}
	switch n := c.count(); {
	case n > maxStringLen:
		c.fail("string length %d exceeds %d", n, maxStringLen)
	case n > 0:
		*v = string(c.buf[c.off : c.off+n])
		c.off += n
	}
}
