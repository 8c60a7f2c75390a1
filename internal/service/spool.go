package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spool layout: every accepted campaign owns one directory under the
// spool root, named by its campaign ID,
//
//	<spool>/<id>/spec.json       the submitted scenario spec (verbatim intake)
//	<spool>/<id>/meta.json       admission state (Meta), rewritten atomically
//	<spool>/<id>/manifest.jsonl  the campaign's resume journal (fsync'd appends)
//	<spool>/<id>/results.jsonl   final result records, written once, atomically
//
// The manifest is the only incrementally-written file; spec, meta and
// results go through writeFileAtomic, so a crash never leaves a
// half-written one. A restarted daemon rebuilds its entire campaign set
// from this directory alone.

// Campaign lifecycle states stored in Meta.State.
const (
	StateQueued   = "queued"   // accepted, waiting for an execution slot
	StateRunning  = "running"  // units executing on the shared pool
	StateDone     = "done"     // finished; results.jsonl is complete
	StateFailed   = "failed"   // gave up after MaxAttempts; Error is set
	StateCanceled = "canceled" // client-requested cancel; resumable by resubmitting
)

// terminalState reports whether a campaign in this state will never run
// again without a new submission.
func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Meta is the durable admission record of one campaign — everything the
// daemon must remember across a restart that the manifest does not carry.
type Meta struct {
	ID          string     `json:"id"`
	Client      string     `json:"client"`
	Name        string     `json:"name"`
	Fingerprint string     `json:"fingerprint"`
	State       string     `json:"state"`
	Error       string     `json:"error,omitempty"`
	Attempts    int        `json:"attempts,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// writeFileAtomic writes data to path with full-file atomicity: the
// bytes land in a temp file in the same directory, are fsync'd, and the
// temp file is renamed over path. A crash at any point leaves either the
// old content or the new, never a torn mix; the directory fsync makes
// the rename itself durable, so its failure fails the write like any
// other.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
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

// campaignDir returns the spool directory of one campaign.
func campaignDir(spool, id string) string { return filepath.Join(spool, id) }

func specPath(spool, id string) string     { return filepath.Join(spool, id, "spec.json") }
func metaPath(spool, id string) string     { return filepath.Join(spool, id, "meta.json") }
func manifestPath(spool, id string) string { return filepath.Join(spool, id, "manifest.jsonl") }
func resultsPath(spool, id string) string  { return filepath.Join(spool, id, "results.jsonl") }

// saveMeta durably rewrites a campaign's meta.json.
func saveMeta(spool string, m Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(metaPath(spool, m.ID), append(data, '\n'))
}

// loadMeta reads one campaign's meta.json.
func loadMeta(spool, id string) (Meta, error) {
	data, err := os.ReadFile(metaPath(spool, id))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("service: spool %s meta: %w", id, err)
	}
	if m.ID != id {
		return Meta{}, fmt.Errorf("service: spool dir %s holds meta for campaign %s", id, m.ID)
	}
	return m, nil
}
