package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/fsatomic"
	"repro/internal/parallel"
	"repro/internal/retry"
	"repro/internal/snapshot"
)

// The store is the server's durability layer. Each session owns two
// files in the data directory:
//
//	<id>.json  — the manifest: identity, config, lifecycle state,
//	             progress counters, and the final result or failure.
//	<id>.snap  — the latest boundary snapshot (internal/snapshot
//	             format), present only while the session has resumable
//	             progress.
//
// Both are written atomically (internal/fsatomic), and every
// operation runs under internal/retry so a transiently failing disk
// costs a short stall, not a lost session.
// The manifest is written before a create is acknowledged, so a
// SIGKILL at any instant loses at most unacknowledged sessions; any
// in-memory progress lost with the process is recomputed
// deterministically on the next step.

// manifest is the on-disk session record. Epoch and the migration
// provenance fields travel with the session when it moves between
// instances: Epoch is the fencing epoch of the last migration attempt
// that touched it, MigratedTo marks a tombstone left behind by a
// committed outbound migration, and MigratedFrom records the announced
// source of an inbound one.
type manifest struct {
	ID           string        `json:"id"`
	Tenant       string        `json:"tenant"`
	Config       SessionConfig `json:"config"`
	State        State         `json:"state"`
	Boundaries   uint64        `json:"boundaries"`
	Cycle        uint64        `json:"cycle"`
	Evictions    uint64        `json:"evictions"`
	Resumes      uint64        `json:"resumes"`
	Result       *Result       `json:"result,omitempty"`
	Failure      string        `json:"failure,omitempty"`
	Epoch        uint64        `json:"epoch,omitempty"`
	MigratedTo   string        `json:"migrated_to,omitempty"`
	MigratedFrom string        `json:"migrated_from,omitempty"`
}

// migrationIntent is the durable record of an in-flight outbound
// migration, written (atomically, before any byte reaches the peer)
// so a crash at ANY later instant leaves enough on disk to resolve the
// handoff in exactly one direction: boot recovery asks the recorded
// target whether epoch committed there — yes → tombstone locally,
// no → fence the epoch at the target and reclaim locally.
type migrationIntent struct {
	ID      string `json:"id"`
	Target  string `json:"target"`
	Epoch   uint64 `json:"epoch"`
	Created string `json:"created,omitempty"`
}

// store performs all session IO. Every durable mutation — an atomic
// write, a remove, a quarantine rename — first passes crash, the
// server's one fault seam (see Server.crash), under a point naming the
// operation and the file's role: "write.snap", "remove.manifest",
// "rename.intent" and so on. Once crash refuses, the store mutates
// nothing more.
type store struct {
	dir   string
	pol   retry.Policy
	crash func(point string) error
}

// ioTimeout bounds one retried operation end to end; store IO never
// uses a request context (persistence must succeed even while the
// server is shutting down).
const ioTimeout = 15 * time.Second

func (st *store) manifestPath(id string) string { return filepath.Join(st.dir, id+".json") }
func (st *store) snapPath(id string) string     { return filepath.Join(st.dir, id+".snap") }
func (st *store) flightPath(id string) string   { return filepath.Join(st.dir, id+".flight.json") }
func (st *store) intentPath(id string) string   { return filepath.Join(st.dir, id+".intent.json") }

// policyFor decorrelates retry jitter across paths (and from other
// processes on the same disk) by folding the path into the seed.
func (st *store) policyFor(path string) retry.Policy {
	h := fnv.New64a()
	h.Write([]byte(path))
	p := st.pol
	p.Seed ^= h.Sum64()
	return p
}

func (st *store) ioCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), ioTimeout)
}

func (st *store) writeManifest(m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encoding manifest %s: %w", m.ID, err)
	}
	return st.writeFile(st.manifestPath(m.ID), data)
}

// fileKind names a data-directory file's role, for crash points.
func fileKind(path string) string {
	switch {
	case strings.HasSuffix(path, ".intent.json"):
		return "intent"
	case strings.HasSuffix(path, ".flight.json"):
		return "flight"
	case strings.HasSuffix(path, ".json"):
		return "manifest"
	}
	return "snap"
}

// writeFile atomically replaces path with data, retried under the
// store's IO policy and timeout. It is the store's one write path.
func (st *store) writeFile(path string, data []byte) error {
	if err := st.crash("write." + fileKind(path)); err != nil {
		return err
	}
	ctx, cancel := st.ioCtx()
	defer cancel()
	return retry.Do(ctx, st.policyFor(path), func() error {
		return fsatomic.WriteFile(path, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
	})
}

// remove deletes path. Best-effort: every caller tolerates a leftover
// file, so a failure is not reported.
func (st *store) remove(path string) {
	if st.crash("remove."+fileKind(path)) == nil {
		os.Remove(path)
	}
}

// readFile returns path's bytes, retried under the store's IO policy;
// a missing file fails at once with an error wrapping os.ErrNotExist.
// It is the store's one read path.
func (st *store) readFile(path string) ([]byte, error) {
	var out []byte
	ctx, cancel := st.ioCtx()
	defer cancel()
	err := retry.Do(ctx, st.policyFor(path), func() error {
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return retry.Permanent(err)
		}
		out = data
		return err
	})
	return out, err
}

func (st *store) loadManifest(path string) (manifest, error) {
	var m manifest
	data, err := st.readFile(path)
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	if err != nil {
		return manifest{}, fmt.Errorf("server: loading manifest %s: %w", path, err)
	}
	return m, nil
}

func (st *store) writeSnapshot(id string, s *snapshot.State) error {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return err
	}
	return st.writeFile(st.snapPath(id), buf.Bytes())
}

// loadSnapshot returns the session's snapshot, or (nil, nil) when none
// exists — a session whose snapshot vanished restarts from cycle zero,
// which is deterministic, just slower.
func (st *store) loadSnapshot(id string) (*snapshot.State, error) {
	raw, err := st.readSnapshotRaw(id)
	if raw == nil || err != nil {
		return nil, err
	}
	s, err := snapshot.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("server: loading snapshot for %s: %w", id, err)
	}
	return s, nil
}

// readSnapshotRaw returns the session's snapshot file bytes verbatim —
// the migration wire format IS the on-disk container (magic, version,
// CRC64 and all), so a transfer ships the already-durable bytes without
// re-encoding. (nil, nil) when the session has no snapshot (no progress
// yet: the target starts it from cycle zero).
func (st *store) readSnapshotRaw(id string) ([]byte, error) {
	data, err := st.readFile(st.snapPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: reading snapshot for %s: %w", id, err)
	}
	return data, nil
}

// writeSnapshotRaw persists received snapshot bytes verbatim (the
// inbound half of the wire-format reuse). The caller has already
// verified the container's CRC.
func (st *store) writeSnapshotRaw(id string, data []byte) error {
	return st.writeFile(st.snapPath(id), data)
}

// removeSnapshot is best-effort cleanup (done sessions do not need
// their snapshots); a leftover file is harmless.
func (st *store) removeSnapshot(id string) { st.remove(st.snapPath(id)) }

// removeSession removes the session's files; used by delete. The
// manifest goes first — it is what makes the session exist on restart
// — so a crash part-way leaves only files boot treats as orphans.
func (st *store) removeSession(id string) {
	st.remove(st.manifestPath(id))
	st.remove(st.snapPath(id))
	st.remove(st.flightPath(id))
	st.remove(st.intentPath(id))
}

// writeIntent durably records an outbound migration before the first
// byte leaves the process. Everything the crash-recovery path needs —
// target and fencing epoch — is in this one atomically-replaced file.
func (st *store) writeIntent(in migrationIntent) error {
	data, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encoding migration intent %s: %w", in.ID, err)
	}
	return st.writeFile(st.intentPath(in.ID), data)
}

// removeIntent clears a resolved intent. Best-effort: a leftover file
// only costs one extra resolution round on the next boot.
func (st *store) removeIntent(id string) { st.remove(st.intentPath(id)) }

// scanIntents loads every migration intent in the data directory. A
// corrupt intent is quarantined like a corrupt manifest — the session
// itself still restores, but the operator must reconcile by hand (see
// the stuck-intent runbook in docs/SERVICE.md) because without the
// target and epoch the handoff cannot be auto-resolved safely.
func (st *store) scanIntents() (intents []migrationIntent, quarantined []string, err error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("server: scanning %s: %w", st.dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".intent.json") {
			continue
		}
		path := filepath.Join(st.dir, e.Name())
		data, rerr := st.readFile(path)
		if rerr != nil {
			quarantined = append(quarantined, st.quarantine(path))
			continue
		}
		var in migrationIntent
		if jerr := json.Unmarshal(data, &in); jerr != nil || in.ID == "" || in.Target == "" || in.Epoch == 0 {
			quarantined = append(quarantined, st.quarantine(path))
			continue
		}
		intents = append(intents, in)
	}
	sort.Slice(intents, func(i, j int) bool { return intents[i].ID < intents[j].ID })
	return intents, quarantined, nil
}

// writeFlight persists a flight record (see flight.go). Same atomic
// write-and-retry discipline as the manifest.
func (st *store) writeFlight(id string, d flightDump) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encoding flight record %s: %w", id, err)
	}
	return st.writeFile(st.flightPath(id), data)
}

// loadFlight returns the raw flight record, or ErrNotFound when the
// session never dumped one.
func (st *store) loadFlight(id string) (json.RawMessage, error) {
	data, err := st.readFile(st.flightPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("server: loading flight record for %s: %w", id, err)
	}
	return data, nil
}

// restored is one recovered session record — or, when quarantined is
// set, a manifest that could not be loaded and was moved aside.
type restored struct {
	man     manifest
	hasSnap bool
	// quarantined: loading the manifest failed (unreadable or corrupt)
	// and the file was renamed out of scan's view; path is where it
	// ended up and err is the load failure. The session is not
	// restored, but the rest of the directory still is.
	quarantined bool
	path        string
	err         error
}

// quarantine moves a manifest that failed to load out of the scan
// namespace (".json" → ".json.corrupt") so one bad file cannot keep
// the server from booting, while preserving the bytes for forensics.
// Returns the file's final path (unchanged if the rename also failed).
func (st *store) quarantine(path string) string {
	q := path + ".corrupt"
	if st.crash("rename."+fileKind(path)) != nil || os.Rename(path, q) != nil {
		return path
	}
	return q
}

// scan loads every manifest in the data directory, in parallel, and
// reports whether each session also has a snapshot on disk. Manifests
// are returned sorted by ID for deterministic restore order. A
// manifest that fails to load is quarantined and reported as such, not
// fatal: crash tolerance must not hinge on every file in the data
// directory being pristine.
func (st *store) scan(workers int) ([]restored, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("server: scanning %s: %w", st.dir, err)
	}
	names := make(map[string]bool, len(entries))
	for _, e := range entries {
		names[e.Name()] = true
	}
	var paths []string
	for _, e := range entries {
		// A receipt or flight record whose manifest is gone belongs to
		// a session whose delete was cut short (delete removes the
		// manifest first). Left in place, it would attach to a later
		// session that reuses the ID.
		if id, ok := strings.CutSuffix(e.Name(), ".snap"); ok && !names[id+".json"] && !names[id+".json.corrupt"] {
			st.remove(filepath.Join(st.dir, e.Name()))
		}
		if id, ok := strings.CutSuffix(e.Name(), ".flight.json"); ok && !names[id+".json"] && !names[id+".json.corrupt"] {
			st.remove(filepath.Join(st.dir, e.Name()))
		}
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		// Flight records and migration intents also end in .json but are
		// not manifests — scanning them here would quarantine them as
		// corrupt. Intents get their own scan (scanIntents).
		if strings.HasSuffix(e.Name(), ".flight.json") || strings.HasSuffix(e.Name(), ".intent.json") {
			continue
		}
		paths = append(paths, filepath.Join(st.dir, e.Name()))
	}
	sort.Strings(paths)
	return parallel.Map(workers, len(paths), func(i int) (restored, error) {
		m, err := st.loadManifest(paths[i])
		if err != nil {
			return restored{quarantined: true, path: st.quarantine(paths[i]), err: err}, nil
		}
		_, statErr := os.Stat(st.snapPath(m.ID))
		if statErr == nil && m.State == StateDone {
			// Completion writes the done manifest before it removes the
			// receipt; a crash between the two leaves one to sweep here.
			st.removeSnapshot(m.ID)
			statErr = os.ErrNotExist
		}
		return restored{man: m, hasSnap: statErr == nil}, nil
	})
}
