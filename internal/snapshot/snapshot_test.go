package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// sampleState builds a fully-populated State exercising every section
// of the format, including float bit patterns that a sloppy codec
// would normalize away (negative zero, subnormals).
func sampleState() *State {
	return &State{
		Config: []KV{{"app", "fig8"}, {"cpus", "4"}, {"policy", "affinity"}},
		Policy: "affinity", NCPU: 4, CacheLines: 8192, Seed: 42,
		CheckpointEvery: 100000, NextCheckpoint: 300000,
		Steps: 1234, Now: 250001, NextID: 9, Live: 5, TimerSeq: 3,
		EngineRNG: 0xdeadbeefcafef00d,
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
		ModelFLOPs: 123456,
		ObsDigest:  0x1122334455667788,
	}
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
	if !Equal(want, got) {
		t.Fatalf("round trip diverged: %v", Diff(want, got))
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
	b.Sched.Threads[0].Entries[0].S += 1e-9
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("fingerprint ignored an S perturbation")
	}
}

// bigState is sampleState grown by n threads, each with a scheduler
// entry per CPU, a joiner and a graph edge — the shape a long-running
// session checkpoints.
func bigState(n int) *State {
	s := sampleState()
	for i := 0; i < n; i++ {
		id := int64(100 + i)
		s.Threads = append(s.Threads, ThreadState{
			ID: id, Name: fmt.Sprintf("worker-%d", i), Status: uint8(i % 4), CPU: int32(i % 4),
			Cycles: uint64(i) * 1000, DispatchCount: uint64(i), RNG: uint64(i) * 0x9e3779b97f4a7c15,
			Joiners: []int64{id - 1},
		})
		st := SchedThread{ID: id, Runnable: i%2 == 0}
		for cpu := int32(0); cpu < 4; cpu++ {
			st.Entries = append(st.Entries, SchedEntry{CPU: cpu, S: float64(i) / 3, SLast: float64(cpu), M0: uint64(i), Prio: 0.5, HeapIdx: -1})
		}
		s.Sched.Threads = append(s.Sched.Threads, st)
		s.Graph = append(s.Graph, GraphEdge{From: id, To: id - 1, Q: 1 / float64(i+1)})
	}
	return s
}

// TestPayloadLayoutPinned pins the wire format: the fingerprint and
// container size of a fully-populated and an empty state. Any change
// to a walk method's field order or encoding moves these, and must
// come with a Version bump.
func TestPayloadLayoutPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		s     *State
		fp    uint64
		bytes int
	}{
		{"sample", sampleState(), 0xe33ee1dce82641b6, 907},
		{"empty", &State{}, 0x97b6fe77e6b3fffd, 216},
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

// BenchmarkCodec times Save and Load of a 130-thread state.
func BenchmarkCodec(b *testing.B) {
	s := bigState(128)
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

// TestDiffNamesFirstDivergence checks that Diff names the exact leaf
// path of the first divergent field, with both values.
func TestDiffNamesFirstDivergence(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*State)
		want   string
	}{
		{"config", func(s *State) { s.Config[1].V = "8" }, `Config[1].V = "4", live "8"`},
		{"seed", func(s *State) { s.Seed++ }, "Seed = 42, live 43"},
		{"clock", func(s *State) { s.Now++ }, "Now = 250001, live 250002"},
		{"cpu", func(s *State) { s.CPUs[1].Misses++ }, "CPUs[1].Misses = 12, live 13"},
		{"thread", func(s *State) { s.Threads[1].Cycles++ }, "Threads[1].Cycles = 5000, live 5001"},
		{"joiner", func(s *State) { s.Threads[1].Joiners[0] = 2 }, "Threads[1].Joiners[0] = 1, live 2"},
		{"sched entry", func(s *State) { s.Sched.Threads[0].Entries[0].S = 13 },
			"Sched.Threads[0].Entries[0].S = 12.5 (bits 0x4029000000000000), live 13 (bits 0x402a000000000000)"},
		{"heap", func(s *State) { s.Sched.Heaps[0][0] = 7 }, "Sched.Heaps[0][0] = 3, live 7"},
		{"graph", func(s *State) { s.Graph[0].Q = 0.75 },
			"Graph[0].Q = 0.5 (bits 0x3fe0000000000000), live 0.75 (bits 0x3fe8000000000000)"},
		{"health", func(s *State) { s.Health[0].Rejected++ }, "Health[0].Rejected = 1, live 2"},
		{"obs", func(s *State) { s.ObsDigest++ }, "ObsDigest = 1234605616436508552, live 1234605616436508553"},
		{"negzero", func(s *State) { s.Sched.Threads[0].Entries[0].SLast = 0 },
			"Sched.Threads[0].Entries[0].SLast = -0 (bits 0x8000000000000000), live 0 (bits 0x0000000000000000)"},
		{"extra thread", func(s *State) { s.Threads = append(s.Threads, ThreadState{ID: 9}) }, "len(Threads) = 2, live 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := sampleState(), sampleState()
			if err := Diff(a, b); err != nil {
				t.Fatalf("equal states diffed: %v", err)
			}
			tc.mutate(b)
			err := Diff(a, b)
			if err == nil {
				t.Fatalf("mutation not detected")
			}
			if want := "snapshot: " + tc.want; err.Error() != want {
				t.Fatalf("diff %q, want %q", err, want)
			}
		})
	}
}

// TestCodecConcurrent runs the recycled codecs from several goroutines
// at once: each must see only its own state's bytes.
func TestCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := bigState(8 * g)
			want := s.Fingerprint()
			for i := 0; i < 50; i++ {
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
