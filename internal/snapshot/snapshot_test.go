package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sampleCapture builds a fully-populated Capture exercising every
// section, including float bit patterns that a sloppy encoding would
// normalize away (negative zero, subnormals).
func sampleCapture() *Capture {
	return &Capture{
		NextID: 9, Live: 5, TimerSeq: 3,
		EngineRNG:  0xdeadbeefcafef00d,
		ModelFLOPs: 123456,
		CPUs: []CPUState{
			{Clock: 250001, Misses: 777, Refs: 4000000000, Hits: 12, BaseRefs: 3999999999, BaseHits: 7, Idle: 5, Dispatches: 40, Parked: false, Running: 3},
			{Clock: 249000, Misses: 12, Refs: 1, Hits: 1, Idle: 9000, Dispatches: 2, Parked: true, Running: -1},
		},
		Timers: []TimerState{{WakeAt: 260000, Seq: 1, Thread: 4}, {WakeAt: 260000, Seq: 2, Thread: 7}},
		Threads: []ThreadState{
			{ID: 1, Name: "main", Status: 2, BlockedOn: "join t3", CPU: -1, Cycles: 100, DispatchClock: 90, DispatchCount: 4, DispatchMisses: 700, ReadyClock: 88, RNG: 17, Joiners: nil},
			{ID: 3, Name: "worker", Status: 1, CPU: 0, Cycles: 5000, RNG: 99, Joiners: []int64{1}},
		},
		Sched: SchedState{
			DispatchCount: 42, Escapes: 1,
			Ops:        [8]uint64{1, 2, 3, 4, 5, 6, 7, 8},
			Quarantine: []bool{false, true, false, false},
			Global:     []GlobalEntry{{Thread: 7, Stamp: 11}, {Thread: -1, Stamp: 12}},
			Spawn:      [][]int64{{5, 6}, nil, {8}, nil},
			Heaps:      [][]int64{{3}, nil, nil, nil},
			Threads: []SchedThread{
				{ID: 3, Running: true, Entries: []SchedEntry{
					{CPU: 0, S: 12.5, SLast: math.Copysign(0, -1), M0: 700, Prio: 0.25, DispatchS: 5e-310, DispatchM: 690, HeapIdx: -1},
				}},
				{ID: 7, Runnable: true, InGlobal: true},
			},
		},
		Graph: []GraphEdge{{From: 3, To: 7, Q: 0.5}, {From: 7, To: 3, Q: 1}},
		Health: []HealthState{
			{OK: 40, Suspect: 2, Rejected: 1, Quarantines: 1, Recoveries: 0, StreakRejected: 0, StreakClean: 3, Frozen: 1, Quarantined: true},
			{OK: 44},
		},
	}
}

// sampleReceipt is the unsealed receipt half of the sample: identity,
// schedule, cursor and obs digest.
func sampleReceipt() *State {
	return &State{
		Config: []KV{{"app", "fig8"}, {"cpus", "4"}, {"policy", "affinity"}},
		Policy: "affinity", NCPU: 4, CacheLines: 8192, Seed: 42,
		CheckpointEvery: 100000, NextCheckpoint: 300000,
		Steps: 1234, Now: 250001,
		ObsDigest: 0x1122334455667788,
	}
}

// sampleState is sampleReceipt sealed from sampleCapture.
func sampleState() *State {
	s := sampleReceipt()
	s.Seal(sampleCapture())
	return s
}

func TestRoundTrip(t *testing.T) {
	want := sampleState()
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !Equal(want, got) || !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip diverged: %v\nsaved:  %+v\nloaded: %+v", Diff(want, got), want, got)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprints differ after round trip")
	}
	// Empty state must round-trip too.
	var empty State
	buf.Reset()
	if err := empty.Save(&buf); err != nil {
		t.Fatalf("Save empty: %v", err)
	}
	got2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load empty: %v", err)
	}
	if !Equal(&empty, got2) {
		t.Fatalf("empty state did not round trip: %v", Diff(&empty, got2))
	}
}

func TestFingerprintSensitive(t *testing.T) {
	a := sampleState()
	b := sampleState()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical states have different fingerprints")
	}
	c := sampleCapture()
	c.Sched.Threads[0].Entries[0].S += 1e-9
	b.Seal(c)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("fingerprint ignored an S perturbation")
	}
}

// bigCapture is sampleCapture grown by n threads, each with a
// scheduler entry per CPU, a joiner and a graph edge — the shape a
// long-running session checkpoints.
func bigCapture(n int) *Capture {
	c := sampleCapture()
	for i := 0; i < n; i++ {
		id := int64(100 + i)
		c.Threads = append(c.Threads, ThreadState{
			ID: id, Name: fmt.Sprintf("worker-%d", i), Status: uint8(i % 4), CPU: int32(i % 4),
			Cycles: uint64(i) * 1000, DispatchCount: uint64(i), RNG: uint64(i) * 0x9e3779b97f4a7c15,
			Joiners: []int64{id - 1},
		})
		st := SchedThread{ID: id, Runnable: i%2 == 0}
		for cpu := int32(0); cpu < 4; cpu++ {
			st.Entries = append(st.Entries, SchedEntry{CPU: cpu, S: float64(i) / 3, SLast: float64(cpu), M0: uint64(i), Prio: 0.5, HeapIdx: -1})
		}
		c.Sched.Threads = append(c.Sched.Threads, st)
		c.Graph = append(c.Graph, GraphEdge{From: id, To: id - 1, Q: 1 / float64(i+1)})
	}
	return c
}

// TestPayloadLayoutPinned pins the Version 2 format: the section
// digests of the sample capture, and the fingerprint and container
// size of the sealed sample receipt and of the zero receipt. Any change
// to a walk method's field order or encoding moves these, and must
// come with a Version bump.
func TestPayloadLayoutPinned(t *testing.T) {
	s := sampleState()
	wantDigests := [NumSections]uint64{
		0xc6cfec218e4b0be7, 0x1d0fa8ebc940bfdf, 0xf67b298db99ebf85, 0xf7e4592130902347,
		0xc738a488c1f397d1, 0x3fdfde373352229b, 0x7fdc0ba940f0c1bb,
	}
	if s.Digests != wantDigests {
		t.Errorf("sample digests %#x; want %#x", s.Digests, wantDigests)
	}
	for _, tc := range []struct {
		name  string
		s     *State
		fp    uint64
		bytes int
	}{
		{"sample", s, 0x6d04bdea651ed683, 186},
		{"empty", &State{}, 0xb7f589011c0b0438, 146},
	} {
		var buf bytes.Buffer
		if err := tc.s.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", tc.name, err)
		}
		if fp := tc.s.Fingerprint(); fp != tc.fp || buf.Len() != tc.bytes {
			t.Errorf("%s: fingerprint %#x, %d bytes; want %#x, %d bytes", tc.name, fp, buf.Len(), tc.fp, tc.bytes)
		}
	}
}

// BenchmarkCodec times sealing a 130-thread capture, then Save and
// Load of the receipt.
func BenchmarkCodec(b *testing.B) {
	c := bigCapture(128)
	s := sampleReceipt()
	b.Run("Seal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Seal(c)
		}
	})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	b.Run("Save", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := s.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Load", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := Load(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sampleState().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

func TestLoadRejectsCorruption(t *testing.T) {
	good := encodeSample(t)

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 'X'
		_, err := Load(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("want magic error, got %v", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[8:12], Version+1)
		_, err := Load(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("want version error, got %v", err)
		}
	})
	t.Run("checksum", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(b)-1] ^= 0x40 // flip a payload bit
		_, err := Load(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("want checksum error, got %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		_, err := Load(bytes.NewReader(good[:10]))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("want truncation error, got %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, err := Load(bytes.NewReader(good[:len(good)-5]))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("want truncation error, got %v", err)
		}
	})
	t.Run("trailing garbage inside declared length", func(t *testing.T) {
		// Append bytes to the payload and fix up length+CRC: the
		// decoder must notice it did not consume everything.
		payload := append(append([]byte(nil), good[28:]...), 0, 0, 0)
		b := append([]byte(nil), good[:28]...)
		binary.LittleEndian.PutUint64(b[12:20], uint64(len(payload)))
		sum := crcOf(payload)
		binary.LittleEndian.PutUint64(b[20:28], sum)
		b = append(b, payload...)
		_, err := Load(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("want trailing-bytes error, got %v", err)
		}
	})
	t.Run("hostile count", func(t *testing.T) {
		// A payload that is just a huge element count must be rejected
		// before allocation, not OOM.
		payload := binary.AppendUvarint(nil, 1<<40)
		b := make([]byte, 28)
		copy(b, good[:8])
		binary.LittleEndian.PutUint32(b[8:12], Version)
		binary.LittleEndian.PutUint64(b[12:20], uint64(len(payload)))
		binary.LittleEndian.PutUint64(b[20:28], crcOf(payload))
		b = append(b, payload...)
		_, err := Load(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "count") {
			t.Fatalf("want count error, got %v", err)
		}
	})
	t.Run("hostile length", func(t *testing.T) {
		// A valid header claiming 2 GiB in front of 10 bytes must be
		// reported as truncated without allocating the claimed length.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(hugeClaim()))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("want truncation error, got %v", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("Load allocated %d bytes for a 10-byte payload", grew)
		}
	})
}

// hugeClaim is a valid header claiming a 1<<31-byte payload, followed
// by only 10 payload bytes.
func hugeClaim() []byte {
	b := make([]byte, 28, 38)
	copy(b, magic[:])
	binary.LittleEndian.PutUint32(b[8:12], Version)
	binary.LittleEndian.PutUint64(b[12:20], 1<<31)
	return append(b, make([]byte, 10)...)
}

func crcOf(p []byte) uint64 {
	return crc64.Checksum(p, crc64.MakeTable(crc64.ECMA))
}

// TestDiffNamesFirstDivergence checks that Diff names the divergent
// receipt field with both values, or the divergent state section with
// both digests; a mutation inside a section moves that section's
// digest and no other.
func TestDiffNamesFirstDivergence(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*State, *Capture)
		want   string
	}{
		{"config", func(s *State, _ *Capture) { s.Config[1].V = "8" }, `config cpus="4", live cpus="8"`},
		{"seed", func(s *State, _ *Capture) { s.Seed++ }, "Seed = 42, live 43"},
		{"clock", func(s *State, _ *Capture) { s.Now++ }, "Now = 250001, live 250002"},
		{"cpu", func(_ *State, c *Capture) { c.CPUs[1].Misses++ }, "section cpus"},
		{"thread", func(_ *State, c *Capture) { c.Threads[1].Cycles++ }, "section threads"},
		{"joiner", func(_ *State, c *Capture) { c.Threads[1].Joiners[0] = 2 }, "section threads"},
		{"sched entry", func(_ *State, c *Capture) { c.Sched.Threads[0].Entries[0].S = 13 }, "section sched"},
		{"heap", func(_ *State, c *Capture) { c.Sched.Heaps[0][0] = 7 }, "section sched"},
		{"graph", func(_ *State, c *Capture) { c.Graph[0].Q = 0.75 }, "section graph"},
		{"health", func(_ *State, c *Capture) { c.Health[0].Rejected++ }, "section health"},
		{"obs", func(s *State, _ *Capture) { s.ObsDigest++ }, "ObsDigest = 1234605616436508552, live 1234605616436508553"},
		{"negzero", func(_ *State, c *Capture) { c.Sched.Threads[0].Entries[0].SLast = 0 }, "section sched"},
		{"extra thread", func(_ *State, c *Capture) { c.Threads = append(c.Threads, ThreadState{ID: 9}) }, "section threads"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := sampleState()
			b, c := sampleReceipt(), sampleCapture()
			tc.mutate(b, c)
			b.Seal(c)
			err := Diff(a, b)
			if err == nil {
				t.Fatalf("mutation not detected")
			}
			want := "snapshot: " + tc.want
			if name, ok := strings.CutPrefix(tc.want, "section "); ok {
				var moved []Section
				for sec := range a.Digests {
					if a.Digests[sec] != b.Digests[sec] {
						moved = append(moved, Section(sec))
					}
				}
				if len(moved) != 1 || moved[0].String() != name {
					t.Fatalf("sections %v moved, want only %s", moved, name)
				}
				want = fmt.Sprintf("%s = 0x%016x, live 0x%016x", want, a.Digests[moved[0]], b.Digests[moved[0]])
			}
			if err.Error() != want {
				t.Fatalf("diff %q, want %q", err, want)
			}
		})
	}
}

// TestEveryFieldCounts changes each receipt field (each digest on its
// own) and checks that Diff, Fingerprint and a Save/Load round trip
// all see the change: walk, Load and Diff list the same fields.
func TestEveryFieldCounts(t *testing.T) {
	base := sampleState()
	typ := reflect.TypeOf(*base)
	for i := 0; i < typ.NumField(); i++ {
		n := 1
		if typ.Field(i).Type.Kind() == reflect.Array {
			n = typ.Field(i).Type.Len()
		}
		for j := 0; j < n; j++ {
			live := sampleState()
			f := reflect.ValueOf(live).Elem().Field(i)
			switch f.Kind() {
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Int32, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Array:
				f.Index(j).SetUint(f.Index(j).Uint() ^ 1)
			case reflect.Slice:
				f.Set(reflect.Append(f, reflect.ValueOf(KV{"zz", "1"})))
			default:
				t.Fatalf("field %s: kind %s not covered by this test", typ.Field(i).Name, f.Kind())
			}
			name := typ.Field(i).Name
			if err := Diff(base, live); err == nil {
				t.Errorf("%s[%d]: Diff missed the change", name, j)
			}
			if base.Fingerprint() == live.Fingerprint() {
				t.Errorf("%s[%d]: Fingerprint missed the change", name, j)
			}
			var buf bytes.Buffer
			if err := live.Save(&buf); err != nil {
				t.Fatalf("%s: Save: %v", name, err)
			}
			if got, err := Load(&buf); err != nil || !reflect.DeepEqual(got, live) {
				t.Errorf("%s[%d]: round trip = %+v, %v; want %+v", name, j, got, err, live)
			}
		}
	}
}

// TestSameConfig pins the one config-record comparison resume and
// migration share: order-insensitive, inputs untouched, and a record
// that repeats a key where it should hold another is rejected even
// though its length matches.
func TestSameConfig(t *testing.T) {
	want := []KV{{"app", "tsp"}, {"scale", "0.1"}, {"noannot", "false"}, {"topology", "private-dm"}, {"panicat", "0"}}
	orig := append([]KV(nil), want...)
	rev := append([]KV(nil), want...)
	slices.Reverse(rev)
	if err := SameConfig(rev, want); err != nil {
		t.Errorf("reordered record: %v", err)
	}
	if !slices.Equal(want, orig) {
		t.Errorf("SameConfig reordered its input: %v", want)
	}
	for _, tc := range []struct {
		name string
		got  []KV
		msg  string
	}{
		{"repeated key", []KV{{"app", "tsp"}, {"app", "tsp"}, {"noannot", "false"}, {"topology", "private-dm"}, {"panicat", "0"}},
			`snapshot: config app="tsp", live noannot="false"`},
		{"value", []KV{{"app", "tsp"}, {"scale", "0.2"}, {"noannot", "false"}, {"topology", "private-dm"}, {"panicat", "0"}},
			`snapshot: config scale="0.2", live scale="0.1"`},
		{"missing key", want[:4], `snapshot: config scale="0.1", live panicat="0"`},
	} {
		if err := SameConfig(tc.got, want); err == nil || err.Error() != tc.msg {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.msg)
		}
	}
}

// TestCodecConcurrent runs the recycled encoders from several
// goroutines at once: each must see only its own state's bytes.
func TestCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := bigCapture(8 * g)
			s := sampleReceipt()
			s.Seal(c)
			want := s.Fingerprint()
			for i := 0; i < 50; i++ {
				s := sampleReceipt()
				s.Seal(c)
				var buf bytes.Buffer
				if err := s.Save(&buf); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				got, err := Load(&buf)
				if err != nil {
					t.Errorf("Load: %v", err)
					return
				}
				if !Equal(s, got) || got.Fingerprint() != want {
					t.Errorf("goroutine %d: round trip diverged: %v", g, Diff(s, got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	s := sampleState()
	if err := s.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if !Equal(s, got) {
		t.Fatalf("file round trip diverged: %v", Diff(s, got))
	}
	// Overwrite with a different state: the file must end up as
	// exactly the new snapshot and no temp files may linger.
	s2 := sampleState()
	s2.Steps = 999999
	if err := s2.WriteFile(path); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile after overwrite: %v", err)
	}
	if got2.Steps != 999999 {
		t.Fatalf("overwrite not visible: steps=%d", got2.Steps)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "run.ckpt" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after atomic writes: %v", names)
	}
}

func TestConfigValue(t *testing.T) {
	s := sampleState()
	if got := s.ConfigValue("policy"); got != "affinity" {
		t.Fatalf("ConfigValue(policy) = %q", got)
	}
	if got := s.ConfigValue("absent"); got != "" {
		t.Fatalf("ConfigValue(absent) = %q", got)
	}
}
