package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifestRestore feeds arbitrary bytes to the journal restore path
// — the manifest is input read back from disk. Restore must either
// reject the input or recover from it: it never panics, never folds a
// unit that is out of range, duplicated or of the wrong width, and a
// journal it recovered restores again to the same units.
func FuzzManifestRestore(f *testing.F) {
	sp := testSpec()
	const policies = 3
	total := 12 // testSpec: 4 points × 3 replicates

	// Seed from a real synced journal carrying unit and lease records,
	// plus the torn and foreign shapes restore has to repair or refuse.
	path := filepath.Join(f.TempDir(), "seed.manifest")
	man, err := OpenManifest(path)
	if err != nil {
		f.Fatal(err)
	}
	man.SetSync(true)
	if _, err := man.Restore(sp, policies, func(int, []float64) {}, nil); err != nil {
		f.Fatal(err)
	}
	if err := man.AppendLease(LeaseRecord{Event: LeaseClaim, ID: 1, Worker: 0, Units: []int{0, 1, 2}}); err != nil {
		f.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		if err := man.AppendUnit(u, []float64{float64(u) + 0.5, 2, 3}); err != nil {
			f.Fatal(err)
		}
	}
	if err := man.AppendLease(LeaseRecord{Event: LeaseRelease, ID: 1, Worker: 0}); err != nil {
		f.Fatal(err)
	}
	if err := man.AppendLease(LeaseRecord{Event: LeaseQuarantine, ID: 2, Worker: 1, Units: []int{5}}); err != nil {
		f.Fatal(err)
	}
	man.Close()
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-7])
	f.Add(journal[:len(journal)-1])
	f.Add(append(append([]byte{}, journal...), journal[len(journal)/2:]...))
	f.Add([]byte{})
	f.Add([]byte("\n \n"))
	f.Add([]byte(`{"fingerprint":"00`))
	// A corrupt line followed by a blank unterminated tail: restore must
	// refuse it rather than "repair" a journal that then fails to reopen.
	f.Add(append(append([]byte{}, journal...), "garbage\n  "...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.manifest")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		restore := func() (int, error) {
			man, err := OpenManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			defer man.Close()
			seen := map[int]bool{}
			return man.Restore(sp, policies, func(unit int, vals []float64) {
				if unit < 0 || unit >= total || seen[unit] || len(vals) != policies {
					t.Fatalf("restore folded unit %d (width %d, seen before %v)", unit, len(vals), seen[unit])
				}
				seen[unit] = true
			}, func(LeaseRecord) {})
		}
		n, err := restore()
		if err != nil {
			return // rejected
		}
		again, err := restore()
		if err != nil || again != n {
			t.Fatalf("recovered journal restores %d units (%v), first restore gave %d", again, err, n)
		}
	})
}
