package snapshot

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzLoadSnapshot pins the contract that Load never panics: any byte
// stream — corrupted, truncated, version-skewed, or hostile — either
// reads as a receipt that re-encodes cleanly or fails with an error.
// Mirrors internal/trace's FuzzLoadRecording. ci.sh runs this as a
// short smoke.
func FuzzLoadSnapshot(f *testing.F) {
	// Valid receipts, sealed and zero.
	var buf bytes.Buffer
	if err := sampleState().Save(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	buf.Reset()
	if err := (&State{}).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))

	// Truncations at interesting boundaries.
	for _, n := range []int{0, 7, 8, 12, 20, 27, 28, len(good) / 2, len(good) - 1} {
		if n <= len(good) {
			f.Add(append([]byte(nil), good[:n]...))
		}
	}
	// Version skew with a valid CRC.
	skew := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(skew[8:12], Version+7)
	f.Add(skew)
	// Bit flips in header and payload.
	for _, off := range []int{3, 15, 23, 40, len(good) - 2} {
		flip := append([]byte(nil), good...)
		flip[off] ^= 0x80
		f.Add(flip)
	}
	// Hostile element count behind a valid header+CRC.
	payload := binary.AppendUvarint(nil, 1<<50)
	hostile := make([]byte, 28)
	copy(hostile, good[:8])
	binary.LittleEndian.PutUint32(hostile[8:12], Version)
	binary.LittleEndian.PutUint64(hostile[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hostile[20:28], crcOf(payload))
	f.Add(append(hostile, payload...))
	// A header claiming 2 GiB in front of 10 bytes: must fail as
	// truncated without allocating the claimed length.
	f.Add(hugeClaim())

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A snapshot that loads must re-encode and round-trip exactly.
		var out bytes.Buffer
		if err := st.Save(&out); err != nil {
			t.Fatalf("loaded snapshot failed to save: %v", err)
		}
		st2, err := Load(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to load: %v", err)
		}
		if !Equal(st, st2) {
			t.Fatalf("re-encode round trip diverged: %v", Diff(st, st2))
		}
	})
}
