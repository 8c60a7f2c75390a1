package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"cosched/internal/obs"
	"cosched/internal/scenario"
)

// Manifest is an append-only JSONL journal of completed campaign units
// — and, for distributed campaigns, the shared coordination log. The
// first line binds the journal to one (spec, seed) via the spec's
// fingerprint; each following line records either one finished unit or
// one lease event (claim/renew/release/expire/quarantine, written only
// by the distributed coordinator). Restarting a campaign with the same
// manifest restores the journaled units instead of recomputing them; a
// manifest written for a different spec is refused. Unit records are
// the only authority for exactly-once folding — lease records are
// advisory coordination state that a restart treats as stale (every
// lease of a dead coordinator is dead with it), except quarantine
// records, which persist a unit's poisoned status across restarts.
//
// Single-process campaigns never write lease records, so their journals
// are byte-identical to the pre-distributed format; and because restore
// skips lease records, a distributed campaign's log resumes cleanly
// under the single-process runner too.
//
// In sync mode the journal group-commits: an append only encodes its
// record under mu and takes the next sequence number; one committer
// goroutine fsyncs outside mu and then publishes the highest sequence
// that fsync covered as the durable watermark. Writers keep appending
// while an fsync runs, and one fsync covers every record written before
// it started. Campaign drivers acknowledge a unit only once the
// watermark covers its record; AppendUnit and AppendLease wait for it.
type Manifest struct {
	path string

	mu   sync.Mutex
	f    *os.File
	enc  *json.Encoder
	sync bool
	// writeErr, when non-nil, is consulted before every journal write and
	// fsync — the injectable-fs seam for durability tests (ENOSPC,
	// permission loss) and the chaos harness.
	writeErr func(op string) error
	metrics  *obs.Campaign

	// Group-commit state. seq numbers the records written since the
	// manifest was opened; every record with a sequence ≤ durable is on
	// disk. units/durableUnits count the unit records among them (for
	// the per-fsync batching telemetry). syncErr is the first fsync
	// failure: it is sticky, because after a failed fsync nothing written
	// since the last good one can be trusted to reach the disk.
	seq, durable        uint64
	units, durableUnits uint64
	syncErr             error
	// committing is set while a committer goroutine runs; at most one
	// runs per manifest. advanced is closed, and replaced, whenever the
	// committer publishes a watermark or a failure.
	committing bool
	advanced   chan struct{}
}

type manifestHeader struct {
	Fingerprint string `json:"fingerprint"`
	Units       int    `json:"units"`
	Policies    int    `json:"policies"`
}

// manifestUnit records one finished unit's value vector: one makespan
// per policy for offline campaigns, metricsPerPolicy values per policy
// (flattened policy-major) for online ones. The field keeps its original
// JSON name so offline manifests stay byte-compatible; online specs have
// distinct fingerprints, so the two layouts never mix in one journal.
type manifestUnit struct {
	Unit      int       `json:"unit"`
	Makespans []float64 `json:"makespans"`
}

// Lease event kinds recorded in the coordination log.
const (
	// LeaseClaim grants a unit range to a worker.
	LeaseClaim = "claim"
	// LeaseRenew extends a live lease's expiry (heartbeat received).
	LeaseRenew = "renew"
	// LeaseRelease ends a lease whose units all completed.
	LeaseRelease = "release"
	// LeaseExpire voids a lease after worker death or heartbeat timeout;
	// its unfolded units return to the pending set.
	LeaseExpire = "expire"
	// LeaseQuarantine marks a unit that exhausted its retry budget
	// (it killed too many workers); it is reported, never re-leased,
	// and the mark survives restarts.
	LeaseQuarantine = "quarantine"
)

// LeaseRecord is one coordination-log entry: a lease lifecycle event
// written by the distributed coordinator alongside the unit journal.
// The Event value doubles as the type tag on the wire (the "lease" JSON
// key), so unit records — which never carry it — stay parseable by
// pre-distributed readers.
type LeaseRecord struct {
	Event  string `json:"lease"`
	ID     int    `json:"id"`
	Worker int    `json:"worker"`
	// Units lists the unit indices the event covers: the granted range
	// for claims, the returned remainder for expiries, the single
	// poisoned unit for quarantines. Renew/release records omit it.
	Units []int `json:"units,omitempty"`
}

// manifestLine is the union read shape: a unit record, a lease record,
// or the header (distinguished by which keys are present).
type manifestLine struct {
	Unit      int       `json:"unit"`
	Makespans []float64 `json:"makespans"`
	Event     string    `json:"lease"`
	ID        int       `json:"id"`
	Worker    int       `json:"worker"`
	Units     []int     `json:"units"`
}

// OpenManifest prepares a manifest at path. The file is created on first
// use; an existing file is validated and replayed when the campaign
// starts.
func OpenManifest(path string) (*Manifest, error) {
	if path == "" {
		return nil, fmt.Errorf("campaign: manifest path is empty")
	}
	return &Manifest{path: path, advanced: make(chan struct{})}, nil
}

// SetSync selects the journal's durability mode. When on, a record
// counts as journaled only once an fsync covered it, so a machine crash
// (not just a process crash) can never lose a unit the runner already
// reported done. Appends are group-committed: one fsync, run off the
// campaign's workers, covers every record written before it started.
// It is opt-in for the one-shot CLI (-manifest-sync) and always on in
// the campaign daemon and the distributed coordinator, whose restart
// contracts rest on the journal. Call it before the campaign starts.
func (m *Manifest) SetSync(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sync = on
}

// synced reports whether the journal is in sync mode.
func (m *Manifest) synced() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sync
}

// SetWriteErrHook installs the injectable-fs seam: h is consulted before
// every journal write with the operation kind ("header", "unit",
// "lease") and before every fsync ("sync", called once the fsync's
// coverage is fixed: every record written before it); a non-nil return
// aborts the operation with that error, exactly as a full disk would. A
// failed "sync" fails every later append and wait. Tests use it to prove
// spool failures surface instead of looping; pass nil to clear. h is
// called with the manifest's lock held, possibly from the committer
// goroutine.
func (m *Manifest) SetWriteErrHook(h func(op string) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeErr = h
}

// SetMetrics attaches campaign telemetry: each group-commit fsync is
// counted with the unit records it covered (nil detaches).
func (m *Manifest) SetMetrics(c *obs.Campaign) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metrics = c
}

// Close waits for the committer to finish and closes the journal.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.committing {
		advanced := m.advanced
		m.mu.Unlock()
		<-advanced
		m.mu.Lock()
	}
	if m.f == nil {
		return nil
	}
	err := m.f.Close()
	m.f, m.enc = nil, nil
	return err
}

// restore is the single-process entry point: unit records replay through
// fn, lease records are skipped.
func (m *Manifest) restore(sp scenario.Spec, policies int, fn func(unit int, vals []float64)) (int, error) {
	return m.Restore(sp, policies, fn, nil)
}

// Restore validates the journal against the spec, replays every recorded
// unit through fn (vals is the unit's flat value vector — policies ×
// metricsPerPolicy entries) and every lease record through leaseFn (when
// non-nil), and leaves the file open for appending. It returns the
// number of restored units. A missing or empty file starts a fresh
// journal; a truncated trailing line (interrupted write — unit or lease
// alike) is dropped and repaired, and a file holding nothing but a
// truncated header (a crash during the very first write) restarts from
// scratch. In sync mode the file — and, when Restore created it, its
// directory entry — is fsync'd before Restore returns, so every restored
// unit is as durable as a freshly journaled one.
func (m *Manifest) Restore(sp scenario.Spec, policies int, fn func(unit int, vals []float64), leaseFn func(LeaseRecord)) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fp, err := sp.Fingerprint()
	if err != nil {
		return 0, err
	}
	points, err := sp.Expand()
	if err != nil {
		return 0, err
	}
	head := manifestHeader{
		Fingerprint: fmt.Sprintf("%016x", fp),
		Units:       len(points) * sp.ReplicateCap(),
		Policies:    policies,
	}

	blob, err := os.ReadFile(m.path)
	created := os.IsNotExist(err)
	if created {
		blob = nil
	} else if err != nil {
		return 0, fmt.Errorf("campaign: reading manifest: %w", err)
	}

	// Complete lines end in '\n'. Whatever follows the last '\n' is the
	// tail an interrupted append may have torn: kept (and given its
	// newline back) when it still parses as a whole record, cut off
	// otherwise.
	keep := len(blob)
	var lines []string
	for _, l := range strings.Split(string(blob), "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	tail := ""
	if nl := strings.LastIndexByte(string(blob), '\n'); nl+1 < len(blob) {
		tail = string(blob[nl+1:])
		if strings.TrimSpace(tail) == "" {
			keep = nl + 1 // a blank tail holds no record: drop it
		}
	}
	if len(blob) > 0 && len(lines) == 0 {
		return 0, fmt.Errorf("campaign: manifest %s has no header", m.path)
	}
	// torn reports whether line i is the unterminated tail.
	torn := func(i int) bool { return i == len(lines)-1 && lines[i] == tail }

	restored := 0
	if len(lines) > 0 {
		var got manifestHeader
		if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
			if !torn(0) {
				return 0, fmt.Errorf("campaign: manifest %s header: %w", m.path, err)
			}
			// A crash during the very first write leaves a truncated
			// header and nothing else: no unit was ever journaled, so the
			// journal restarts from scratch instead of refusing to resume.
			keep, lines = 0, nil
		} else if got != head {
			return 0, fmt.Errorf("campaign: manifest %s was written for a different campaign (fingerprint %s/%d units, want %s/%d) — delete it or change the manifest path",
				m.path, got.Fingerprint, got.Units, head.Fingerprint, head.Units)
		}
		seen := make(map[int]bool)
		for i := 1; i < len(lines); i++ {
			var u manifestLine
			if err := json.Unmarshal([]byte(lines[i]), &u); err != nil {
				if torn(i) {
					// An interrupted append leaves a truncated final line
					// (a torn unit or lease record alike); cut it off and
					// let the coordinator re-issue it.
					keep = len(blob) - len(tail)
					break
				}
				return 0, fmt.Errorf("campaign: manifest %s line %d: %w", m.path, i+1, err)
			}
			if u.Event != "" {
				// Coordination record: advisory, never counted as a unit.
				if leaseFn != nil {
					leaseFn(LeaseRecord{Event: u.Event, ID: u.ID, Worker: u.Worker, Units: u.Units})
				}
				continue
			}
			if u.Unit < 0 || u.Unit >= head.Units || len(u.Makespans) != policies*metricsPerPolicy(sp) || seen[u.Unit] {
				return 0, fmt.Errorf("campaign: manifest %s has a corrupt unit record %d", m.path, u.Unit)
			}
			seen[u.Unit] = true
			fn(u.Unit, u.Makespans)
			restored++
		}
	}

	if keep < len(blob) {
		// Cut the torn or blank tail off so new appends start clean and
		// later resumes never see it.
		if err := os.Truncate(m.path, int64(keep)); err != nil {
			return 0, fmt.Errorf("campaign: repairing manifest tail: %w", err)
		}
		blob = blob[:keep]
	}
	f, err := os.OpenFile(m.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("campaign: opening manifest for append: %w", err)
	}
	m.f, m.enc = f, json.NewEncoder(f)
	switch {
	case len(blob) == 0:
		if err := m.hookErrLocked("header"); err != nil {
			return 0, err
		}
		if err := m.enc.Encode(head); err != nil {
			return 0, fmt.Errorf("campaign: writing manifest header: %w", err)
		}
	case blob[len(blob)-1] != '\n':
		// The tail line parsed but lost its newline; complete it.
		if _, err := f.WriteString("\n"); err != nil {
			return 0, fmt.Errorf("campaign: repairing manifest tail: %w", err)
		}
	}
	if !m.sync {
		return restored, nil
	}
	if err := m.hookErrLocked("sync"); err != nil {
		return 0, err
	}
	if err := syncFile(f); err != nil {
		return 0, err
	}
	if created {
		// A fresh file's directory entry is not durable until its
		// directory is fsync'd; without it a machine crash could lose
		// the whole journal, acknowledged units included.
		if err := syncDir(filepath.Dir(m.path)); err != nil {
			return 0, fmt.Errorf("campaign: syncing manifest directory: %w", err)
		}
	}
	return restored, nil
}

// syncFile fsyncs the journal file.
func syncFile(f *os.File) error {
	if err := f.Sync(); err != nil {
		return fmt.Errorf("campaign: syncing manifest: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// hookErrLocked runs the injectable-fs hook for one write. The caller
// holds m.mu.
func (m *Manifest) hookErrLocked(op string) error {
	if m.writeErr == nil {
		return nil
	}
	return m.writeErr(op)
}

// write encodes one record (op is its hook kind) without waiting for
// it to become durable and returns its sequence number. acked reports
// that the record needs no fsync (sync mode off) and so counts as
// journaled at once; otherwise the committer covers it, and callers
// acknowledge it once the watermark reaches seq.
func (m *Manifest) write(op string, rec any) (seq uint64, acked bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.enc == nil {
		return 0, false, fmt.Errorf("campaign: manifest %s not opened by a campaign run", m.path)
	}
	if m.syncErr != nil {
		return 0, false, m.syncErr
	}
	if err := m.hookErrLocked(op); err != nil {
		return 0, false, err
	}
	if err := m.enc.Encode(rec); err != nil {
		return 0, false, fmt.Errorf("campaign: appending %s record to manifest: %w", op, err)
	}
	m.seq++
	if op == "unit" {
		m.units++
	}
	if !m.sync {
		m.durable, m.durableUnits = m.seq, m.units
		return m.seq, true, nil
	}
	if !m.committing {
		m.committing = true
		go m.commit()
	}
	return m.seq, false, nil
}

// commit is the group committer: while records are written but not
// durable, it fsyncs — outside mu, so writers keep appending — and
// publishes the sequence the fsync covered as the new watermark. It
// exits once caught up (the next write starts a new one) or after a
// failed fsync, which it publishes as the sticky syncErr.
func (m *Manifest) commit() {
	m.mu.Lock()
	for m.durable < m.seq && m.syncErr == nil {
		target, units, f := m.seq, m.units, m.f
		err := m.hookErrLocked("sync")
		m.mu.Unlock()
		if err == nil {
			err = syncFile(f)
		}
		m.mu.Lock()
		if err != nil {
			m.syncErr = err
		} else {
			m.metrics.ObserveJournalSync(units - m.durableUnits)
			m.durable, m.durableUnits = target, units
		}
		close(m.advanced)
		m.advanced = make(chan struct{})
	}
	m.committing = false
	m.mu.Unlock()
}

// watermark returns the durable watermark, a channel closed when it next
// changes, and the sticky fsync failure, if any.
func (m *Manifest) watermark() (uint64, <-chan struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durable, m.advanced, m.syncErr
}

// waitDurable blocks until the watermark reaches seq or an fsync fails.
func (m *Manifest) waitDurable(seq uint64) error {
	for {
		w, advanced, err := m.watermark()
		if err != nil {
			return err
		}
		if w >= seq {
			return nil
		}
		<-advanced
	}
}

// flush waits until every record written so far is durable (or an
// fsync failed) and returns the final watermark.
func (m *Manifest) flush() (uint64, error) {
	m.mu.Lock()
	seq := m.seq
	m.mu.Unlock()
	err := m.waitDurable(seq)
	w, _, _ := m.watermark()
	return w, err
}

// AppendUnit journals one completed unit's flat value vector. In sync
// mode it returns only once an fsync covered the record, so a unit the
// caller counts as done survives even a machine crash.
func (m *Manifest) AppendUnit(unit int, vals []float64) error {
	seq, _, err := m.write("unit", manifestUnit{Unit: unit, Makespans: vals})
	if err != nil {
		return err
	}
	return m.waitDurable(seq)
}

// AppendLease journals one coordination-log lease event. The
// distributed coordinator is the only writer; sync mode applies as for
// units.
func (m *Manifest) AppendLease(rec LeaseRecord) error {
	if rec.Event == "" {
		return fmt.Errorf("campaign: lease record without an event")
	}
	seq, _, err := m.write("lease", rec)
	if err != nil {
		return err
	}
	return m.waitDurable(seq)
}
