package campaign

import (
	"errors"
	"sync"
	"testing"

	"cosched/internal/model"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// exampleGridSpec is the `campaign -example` grid: platform size × MTBF
// at n = 10 under a Weibull law — one pack class shared by all six
// points.
func exampleGridSpec() scenario.Spec {
	w := workload.Default()
	w.N = 10
	w.P = 100
	w.MTBFYears = 10
	return scenario.Spec{
		Name:       "residency-example",
		Workload:   w,
		Failure:    scenario.FailureSpec{Law: "weibull", Shape: 0.7},
		Policies:   []string{"norc", "ig-el", "stf-el", "ff-el"},
		Base:       "norc",
		Replicates: 5,
		Seed:       1,
		Axes: []scenario.Axis{
			{Param: scenario.ParamP, Values: []float64{40, 80, 160}},
			{Param: scenario.ParamMTBF, Values: []float64{5, 20}},
		},
	}
}

// nSweepSpec sweeps the task count, so every point is its own pack
// class and no table is ever shared across points.
func nSweepSpec() scenario.Spec {
	w := workload.Default()
	w.N = 4
	w.P = 128
	w.MTBFYears = 10
	return scenario.Spec{
		Name:       "residency-n-sweep",
		Workload:   w,
		Policies:   []string{"norc", "ig-el", "ff-el"},
		Base:       "norc",
		Replicates: 40,
		Seed:       3,
		Axes: []scenario.Axis{
			{Param: scenario.ParamN, Values: []float64{4, 8, 16, 32}},
		},
	}
}

// groupBytes returns the table bytes one replicate of the whole grid
// compiles — at least one open group's worth: the campaign at a single
// replicate, run into a caller-owned cache that keeps every table.
func groupBytes(t *testing.T, sp scenario.Spec) int64 {
	t.Helper()
	sp.Precision, sp.Replicates = nil, 1
	cache := model.NewCache(0)
	if _, err := Run(sp, Options{Workers: 1, ModelCache: cache}); err != nil {
		t.Fatal(err)
	}
	return cache.Stats().ResidentBytes
}

// withEvictingDefault swaps the process-default cache for one that
// keeps no idle table (a one-byte budget is smaller than any table), so
// its level fields count exactly the tables some unit holds or some
// open replicate group pins. The real default is restored when the test
// ends.
func withEvictingDefault(t *testing.T) {
	t.Helper()
	saved := defaultModelCache
	defaultModelCache = model.NewCache(1)
	t.Cleanup(func() { defaultModelCache = saved })
}

// checkDrained fails unless the default cache holds nothing: every
// table released, every replicate group closed.
func checkDrained(t *testing.T) {
	t.Helper()
	if s := ModelCacheStats(); s.ResidentBytes != 0 || s.Entries != 0 || s.OpenGroups != 0 {
		t.Fatalf("default cache not drained after Run: %+v", s)
	}
}

// TestDefaultCacheResidencyBound pins the residency rule of the
// default path: a table lives only while a unit holds it or an open
// replicate group pins it, so the held-or-pinned peak stays within a
// small multiple of one replicate's tables however many replicates run,
// and nothing is held or pinned once Run returns. The default cache's
// idle budget is set aside (withEvictingDefault) so the peak measures
// the pinned window alone.
func TestDefaultCacheResidencyBound(t *testing.T) {
	withEvictingDefault(t)
	adaptive := exampleGridSpec()
	adaptive.Replicates = 0
	adaptive.Precision = &scenario.PrecisionSpec{RelHalfWidth: 0.02, Confidence: 0.95, Batch: 8, MaxReplicates: 2000}
	// maxGroups bounds the peak in replicates' worth of tables. Adaptive
	// with Parallel keeps a lookahead window of 8 replicates per point
	// in flight (two workers, rounded up to the batch), plus whatever
	// spread between the points of a share class keeps groups open
	// (measured: ~4.1; ~12.6 when groups span every platform size of a
	// pack class); the fixed n-sweep has one point per class, so
	// each group closes with its unit and only the two workers' groups
	// are open (~1.1). Recycled arenas are charged at their capacity,
	// which can exceed the table they hold — hence the slack.
	cases := []struct {
		name      string
		sp        scenario.Spec
		opt       Options
		maxGroups int64
	}{
		{"adaptive-example-grid-parallel", adaptive, Options{Workers: 2, Parallel: true}, 12},
		{"fixed-n-sweep", nSweepSpec(), Options{Workers: 2}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			group := groupBytes(t, tc.sp)
			checkDrained(t)
			ResetModelCachePeak()
			before := ModelCacheStats()
			res, err := Run(tc.sp, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			s := ModelCacheStats()
			d := s.Delta(before)
			reps := res.Units() / len(res.Points)
			t.Logf("peak %d B = %.1f × one replicate's tables (%d B); %d replicates per point; %+v",
				s.PeakResidentBytes, float64(s.PeakResidentBytes)/float64(group), group, reps, d)
			if int64(reps) < 4*tc.maxGroups {
				t.Fatalf("only %d replicates per point: too few for the bound to mean anything", reps)
			}
			if s.PeakResidentBytes > tc.maxGroups*group {
				t.Fatalf("peak resident %d B exceeds %d replicates' tables (%d B each)", s.PeakResidentBytes, tc.maxGroups, group)
			}
			if d.Misses == 0 || d.Evictions == 0 {
				t.Fatalf("cache never engaged: %+v", d)
			}
			checkDrained(t)
		})
	}
}

// TestDefaultCacheDrainsOnEveryReturn checks that Run closes every
// replicate group and releases every table on its failure paths too:
// a canceled campaign and one whose unit fails, fixed and adaptive, on
// private workers and on a shared Pool. The default cache's idle budget
// is set aside (withEvictingDefault), so any table left resident is a
// leaked hold or pin.
func TestDefaultCacheDrainsOnEveryReturn(t *testing.T) {
	withEvictingDefault(t)
	errUnit := errors.New("injected unit failure")
	for _, adaptive := range []bool{false, true} {
		for _, pooled := range []bool{false, true} {
			for _, failure := range []string{"cancel", "unit-error"} {
				name := map[bool]string{false: "fixed", true: "adaptive"}[adaptive] + "-" +
					map[bool]string{false: "private", true: "pooled"}[pooled] + "-" + failure
				t.Run(name, func(t *testing.T) {
					sp := exampleGridSpec()
					sp.Replicates = 40
					if adaptive {
						sp.Replicates = 0
						sp.Precision = &scenario.PrecisionSpec{RelHalfWidth: 0.001, Batch: 4, MaxReplicates: 40}
					}
					opt := Options{Workers: 2, Parallel: adaptive}
					want := errUnit
					if failure == "cancel" {
						cancel := make(chan struct{})
						var once sync.Once
						opt.Cancel = cancel
						opt.Progress = func(done, total int) {
							if done >= 20 {
								once.Do(func() { close(cancel) })
							}
						}
						want = ErrCanceled
					} else {
						unitFault = func(point, rep int) error {
							if point == 1 && rep == 7 {
								return errUnit
							}
							return nil
						}
						defer func() { unitFault = nil }()
					}
					if pooled {
						pool := NewPool(2)
						defer pool.Close()
						opt.Pool = pool
					}
					_, err := Run(sp, opt)
					if !errors.Is(err, want) {
						t.Fatalf("Run returned %v, want %v", err, want)
					}
					checkDrained(t)
				})
			}
		}
	}
}

// TestDefaultCacheIdleBudget checks the real process-default cache:
// once Run returns nothing is pinned, and what stays resident is idle
// tables within defaultIdleBytes — which keep an identical re-run warm.
func TestDefaultCacheIdleBudget(t *testing.T) {
	sp := exampleGridSpec()
	sp.Seed = 7
	if _, err := Run(sp, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	s := ModelCacheStats()
	if s.OpenGroups != 0 || s.ResidentBytes > defaultIdleBytes {
		t.Fatalf("default cache after Run: %+v, want no open group and ≤ %d idle bytes", s, defaultIdleBytes)
	}
	before := ModelCacheStats()
	if _, err := Run(sp, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if d := ModelCacheStats().Delta(before); d.Misses != 0 {
		t.Fatalf("identical re-run of a small campaign missed: %+v", d)
	}
}
