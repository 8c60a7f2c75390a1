package campaign

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cosched/internal/obs"
	"cosched/internal/scenario"
)

// journalModes are the in-process drivers that acknowledge units at the
// journal's durable watermark.
var journalModes = []struct {
	name     string
	adaptive bool
	pooled   bool
}{
	{"fixed-goroutines", false, false},
	{"fixed-pool", false, true},
	{"adaptive-goroutines", true, false},
	{"adaptive-pool", true, true},
}

// syncLedger observes a synced manifest through its write-error hook.
// The hook runs under the manifest's lock, so "unit" counts exactly the
// records written and "sync" sees exactly the records the coming fsync
// covers. failAt, when positive, fails the first fsync that would cover
// at least that many units; good is then the coverage of the last fsync
// that was allowed to run.
type syncLedger struct {
	mu       sync.Mutex
	appended int
	good     int // units covered by the last fsync the hook let through
	failAt   int
	failed   bool
	done     int // last Progress value
	returned bool
}

var errInjectedSync = errors.New("injected fsync failure")

func (l *syncLedger) hook(op string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch op {
	case "unit":
		l.appended++
	case "sync":
		if l.failAt > 0 && l.appended >= l.failAt {
			l.failed = true
			return errInjectedSync
		}
		l.good = l.appended
	}
	return nil
}

// progress checks the acknowledgement rule at every report: done never
// exceeds what a successful fsync covered, never runs backwards, and
// never moves once Run returned.
func (l *syncLedger) progress(t *testing.T) func(done, total int) {
	return func(done, total int) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.returned {
			t.Errorf("Progress(%d, %d) after Run returned", done, total)
		}
		if done > l.good {
			t.Errorf("Progress(%d, %d) reported, but fsyncs cover only %d of %d appended units", done, total, l.good, l.appended)
		}
		if done < l.done {
			t.Errorf("Progress went backwards: %d after %d", done, l.done)
		}
		l.done = done
	}
}

// runJournaled runs sp once against a fresh synced manifest observed by
// l, in the given driver mode.
func runJournaled(t *testing.T, sp scenario.Spec, pooled bool, l *syncLedger, m *obs.Campaign) (*Result, string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.manifest")
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	man.SetSync(true)
	man.SetWriteErrHook(l.hook)
	opt := Options{Workers: 2, Manifest: man, Metrics: m, Progress: l.progress(t)}
	if pooled {
		pool := NewPool(2)
		defer pool.Close()
		opt.Pool, opt.Client = pool, "c"
	}
	res, err := Run(sp, opt)
	l.mu.Lock()
	l.returned = true
	l.mu.Unlock()
	if cerr := man.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return res, path, err
}

// TestProgressFollowsDurableSync pins the group-commit acknowledgement
// rule: in every driver, each Progress(done) is preceded by a successful
// fsync covering at least done appended units, the telemetry's done
// count agrees, and the campaign still completes to byte-identical
// output with every unit durable. Run it under -race: workers, the
// committer and the acknowledging goroutine all touch the journal.
func TestProgressFollowsDurableSync(t *testing.T) {
	for _, tc := range journalModes {
		t.Run(tc.name, func(t *testing.T) {
			sp := testSpec()
			if tc.adaptive {
				sp = adaptiveSpec()
			}
			ref, err := Run(sp, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			l := &syncLedger{}
			m := obs.NewCampaign()
			res, _, err := runJournaled(t, sp, tc.pooled, l, m)
			if err != nil {
				t.Fatal(err)
			}
			if jsonl(t, res) != jsonl(t, ref) {
				t.Fatal("journaled campaign diverges from the reference run")
			}
			// Every replicate runs and is journaled exactly once: the
			// drivers never re-queue a unit waiting for its fsync.
			if l.appended != res.Units() {
				t.Fatalf("journaled %d unit records for a %d-unit campaign", l.appended, res.Units())
			}
			if l.done != res.Units() {
				t.Fatalf("progress ended at %d, want %d units", l.done, res.Units())
			}
			if l.good != l.appended {
				t.Fatalf("Run returned with %d of %d appended units durable", l.good, l.appended)
			}
			s := m.Snapshot()
			if int(s.UnitsDone) != res.Units() || s.QueueDepth != 0 {
				t.Fatalf("telemetry ends at done %d, queue %d; want %d, 0", s.UnitsDone, s.QueueDepth, res.Units())
			}
			if s.JournalFsyncs == 0 || math.Round(s.JournalUnitsPerFsync*float64(s.JournalFsyncs)) != float64(l.appended) {
				t.Fatalf("journal telemetry: %d fsyncs × %v units, want %d units in total", s.JournalFsyncs, s.JournalUnitsPerFsync, l.appended)
			}
		})
	}
}

// TestJournalSyncFailureFailsCampaign injects a failed fsync: the
// campaign must fail with that error, no unit past the last good fsync
// may ever be reported done, and the journal must still resume to
// byte-identical output.
func TestJournalSyncFailureFailsCampaign(t *testing.T) {
	for _, tc := range journalModes {
		t.Run(tc.name, func(t *testing.T) {
			sp := testSpec()
			if tc.adaptive {
				sp = adaptiveSpec()
			}
			ref, err := Run(sp, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			l := &syncLedger{failAt: 4}
			m := obs.NewCampaign()
			_, path, err := runJournaled(t, sp, tc.pooled, l, m)
			if !errors.Is(err, errInjectedSync) {
				t.Fatalf("Run returned %v, want the injected fsync failure", err)
			}
			if !l.failed {
				t.Fatal("no fsync failed")
			}
			if l.done > l.good {
				t.Fatalf("reported %d units done, but only %d were durable", l.done, l.good)
			}
			if d := int(m.Snapshot().UnitsDone); d > l.good {
				t.Fatalf("telemetry reports %d units done, but only %d were durable", d, l.good)
			}

			man, err := OpenManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sp, Options{Manifest: man})
			man.Close()
			if err != nil {
				t.Fatal(err)
			}
			if jsonl(t, res) != jsonl(t, ref) {
				t.Fatal("campaign resumed after a failed fsync diverges")
			}
		})
	}
}

// TestManifestSyncCreatesDurableEntry pins that a synced manifest
// creating its file writes and fsyncs the header before Restore returns,
// and that a blocking AppendUnit on a synced journal returns only once
// an fsync covered it.
func TestManifestSyncCreatesDurableEntry(t *testing.T) {
	sp := testSpec()
	path := filepath.Join(t.TempDir(), "fresh.manifest")
	man, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	man.SetSync(true)
	var ops []string
	man.SetWriteErrHook(func(op string) error {
		ops = append(ops, op)
		return nil
	})
	if _, err := man.Restore(sp, 3, func(int, []float64) {}, nil); err != nil {
		t.Fatal(err)
	}
	if err := man.AppendUnit(0, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	w, _, err := man.watermark()
	if err != nil || w != 1 {
		t.Fatalf("after AppendUnit the watermark is %d (%v), want 1", w, err)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"header", "sync", "unit", "sync"}
	if len(ops) != len(want) {
		t.Fatalf("journal ops %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("journal ops %v, want %v", ops, want)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("fresh journal missing or empty: %v", err)
	}
}
