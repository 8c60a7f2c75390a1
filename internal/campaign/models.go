// Compiled-model sharing across campaign units: pack classes, the
// replicate groups that memoize packs and pin tables, and the
// process-global content-addressed cache of compiled instance models
// (model.Cache). This generalizes the earlier per-point
// sharedPointModels: instead of sharing only within one homogeneous grid
// point, packs are drawn per pack class and compiled tables are shared
// across every point, replicate and campaign that provably needs the
// same tables — with bit-identical results by construction (see
// DESIGN.md §15).
package campaign

import (
	"iter"
	"os"
	"sync"

	"cosched/internal/model"
	"cosched/internal/obs"
	"cosched/internal/rng"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// defaultModelCache is the process-global compiled-model cache. A
// table stays resident while a unit holds it or an open replicate group
// pins it (see unitModels); beyond that the cache keeps only
// defaultIdleBytes of idle tables, oldest first out. Every replicate
// draws a fresh pack, so a table outlives its group usefully only when
// a later Run repeats the same packs — an identical re-run, or two
// figures sweeping one axis under one master seed. Such repeats of
// example-scale campaigns fit in the idle budget; paper-scale tables
// (megabytes each) would need hundreds of MiB kept across Runs, so
// they go when their group closes. Concurrent Runs on the daemon's
// shared pool share the tables they hold at the same time. A caller
// that re-runs larger identical work passes its own model.NewCache as
// Options.ModelCache.
var defaultModelCache = model.NewCache(defaultIdleBytes)

// defaultIdleBytes is the default cache's idle budget: enough to keep
// the tables of a small re-run campaign (the example-scale grids of the
// throughput benchmarks compile 0.4 and 2.5 MB) without letting
// single-use tables pile up.
const defaultIdleBytes = 4 << 20

// ModelCacheStats returns the process-global cache's counters — the
// hook cmd/campaign's summary line and tests use. Callers wanting
// per-run numbers snapshot before and after and Delta the two.
func ModelCacheStats() model.CacheStats { return defaultModelCache.Stats() }

// ResetModelCachePeak restarts the process-global cache's
// PeakResidentBytes high-water mark at its current level, so a driver
// can read the peak of one stretch of work.
func ResetModelCachePeak() { defaultModelCache.ResetPeak() }

// modelCacheFor resolves the cache a run uses: the COSCHED_MODEL_CACHE
// environment gate ("off"/"0"/"false" disables, checked per Run so
// tests and CI smokes can toggle it), then Options.NoModelCache, then
// an injected Options.ModelCache, then the process default.
func modelCacheFor(opt Options) *model.Cache {
	if opt.NoModelCache {
		return nil
	}
	switch os.Getenv("COSCHED_MODEL_CACHE") {
	case "off", "0", "false":
		return nil
	}
	if opt.ModelCache != nil {
		return opt.ModelCache
	}
	return defaultModelCache
}

// cacheObs converts model-cache counters to their obs mirror type.
func cacheObs(s model.CacheStats) obs.ModelCacheStats {
	return obs.ModelCacheStats{
		Hits:              s.Hits,
		Misses:            s.Misses,
		DeltaBuilds:       s.DeltaBuilds,
		Evictions:         s.Evictions,
		ResidentBytes:     s.ResidentBytes,
		Entries:           s.Entries,
		PeakResidentBytes: s.PeakResidentBytes,
		OpenGroups:        s.OpenGroups,
	}
}

// genSignature is exactly the set of workload.Spec fields that determine
// the task pack Generate draws — the pack-class key. Grid points whose
// specs agree on these fields draw identical packs from identical
// streams; everything else (MTBF, downtime, rule, silent rate, P) shapes
// the resilience parameters, not the draw.
type genSignature struct {
	n           int
	mInf, mSup  float64
	seqFraction float64
	ckptUnit    float64
	verifyUnit  float64
}

func genSigOf(sp workload.Spec) genSignature {
	return genSignature{
		n:           sp.N,
		mInf:        sp.MInf,
		mSup:        sp.MSup,
		seqFraction: sp.SeqFraction,
		ckptUnit:    sp.CkptUnit,
		verifyUnit:  sp.VerifyUnit,
	}
}

// packClasses maps every grid point to its pack class: the lowest point
// index with the same generation signature. Replicate r of every point
// in a class draws its pack from the class's task stream, so an α-, D-,
// rule- or MTBF-only sweep provably reuses one pack per replicate
// across the whole axis (common random numbers across points, not just
// across policies).
func packClasses(points []scenario.RunPoint) []int {
	classes := make([]int, len(points))
	seen := make(map[genSignature]int, len(points))
	for i, pt := range points {
		sig := genSigOf(pt.Spec)
		if c, ok := seen[sig]; ok {
			classes[i] = c
		} else {
			seen[sig] = i
			classes[i] = i
		}
	}
	return classes
}

// unitModels is the campaign-scoped model-sharing state handed to every
// worker: the pack-class table, the memoized packs, the open replicate
// groups, and the compiled-model cache (nil when disabled). Every unit
// of one (pack class, replicate) gets the same memoized []model.Task
// header, so its cache probes take the pointer fast path instead of
// comparing the pack.
//
// A replicate group is one (share class, replicate) pair. A share class
// is the points of one pack class at one platform size — exactly the
// points that can reuse each other's tables, since P is part of every
// table's key. The group holds one use of its replicate's memoized pack
// and one cache pin on every table acquired for it; closing the group —
// once no point of the share class can still run that replicate —
// drops both, and the pack is forgotten once no open group uses it, so
// table residency follows the groups the runner keeps open. Splitting a
// pack class by P keeps a lagging point from holding open the groups of
// the other platform sizes. Without groups (the dist UnitRunner, which
// only sees leased unit ranges) packs are memoized for the runner's
// lifetime and nothing is pinned.
type unitModels struct {
	cache   *model.Cache
	classes []int   // pack class per point: the task stream it draws from
	shares  []int   // share class per point: its lowest point index
	members [][]int // each share class's points, in index order (other indices hold nil)
	grouped bool

	mu     sync.Mutex
	groups map[groupKey]*repGroup
	packs  map[packKey]*classPack
	// closedBelow[s] is the replicate below which every group of share
	// class s has closed for good: a late unit there runs unpinned
	// (adaptive speculation past a stopped point).
	closedBelow []int
}

// groupKey names a replicate group: (share class, replicate).
type groupKey struct{ share, rep int }

// packKey names a memoized pack: (pack class, replicate).
type packKey struct{ class, rep int }

// repGroup is one open replicate group.
type repGroup struct {
	pack *classPack
	pins *model.CacheGroup
	// pending counts the group's dispatched units still to finish
	// (fixed runs, which close a group when it reaches zero).
	pending int
}

// classPack is one memoized pack (nil until drawn) and the number of
// open groups using it.
type classPack struct {
	tasks []model.Task
	users int
}

// newUnitModels builds the campaign's sharing state; grouped selects
// replicate groups (Run) over a runner-lifetime pack memo (UnitRunner).
func newUnitModels(points []scenario.RunPoint, cache *model.Cache, grouped bool) *unitModels {
	classes := packClasses(points)
	shares := make([]int, len(points))
	members := make([][]int, len(points))
	type shareKey struct{ class, p int }
	first := make(map[shareKey]int, len(points))
	for pi, c := range classes {
		k := shareKey{c, points[pi].Spec.P}
		s, ok := first[k]
		if !ok {
			s = pi
			first[k] = pi
		}
		shares[pi] = s
		members[s] = append(members[s], pi)
	}
	return &unitModels{
		cache:       cache,
		classes:     classes,
		shares:      shares,
		members:     members,
		grouped:     grouped,
		groups:      make(map[groupKey]*repGroup),
		packs:       make(map[packKey]*classPack),
		closedBelow: make([]int, len(points)),
	}
}

// packFor returns the canonical task pack of (point pi, replicate rep)
// and the cache group that pins the tables compiled over it (nil when
// tables must not be pinned). The pack is drawn on first use from the
// point's pack-class stream and memoized per (pack class, replicate),
// so the share classes of one pack class draw it once. genSpec is the
// caller's already-validated generation spec (the point's workload with
// the fault fields zeroed for fault-free-only scenarios); points of one
// class agree on every field Generate reads, so whichever point
// generates first, the bytes are the same. ws provides the reseedable
// RNG arena.
func (um *unitModels) packFor(ws *workerState, seed uint64, genSpec workload.Spec, pi, rep int) ([]model.Task, *model.CacheGroup, error) {
	gk := groupKey{share: um.shares[pi], rep: rep}
	pk := packKey{class: um.classes[pi], rep: rep}
	um.mu.Lock()
	defer um.mu.Unlock()
	var cp *classPack
	var pins *model.CacheGroup
	switch g := um.groups[gk]; {
	case g != nil:
		cp, pins = g.pack, g.pins
	case um.grouped && rep >= um.closedBelow[gk.share]:
		g = um.openLocked(gk, pk)
		cp, pins = g.pack, g.pins
	default:
		// The runner-lifetime memo, or a late speculative unit of a
		// closed group, which compiles unpinned.
		if cp = um.packs[pk]; cp == nil {
			cp = &classPack{}
			if !um.grouped {
				um.packs[pk] = cp
			}
		}
	}
	if cp.tasks == nil {
		// Generate outside the lock (two workers may race; the first to
		// publish wins, so every unit gets the one canonical pack).
		um.mu.Unlock()
		ws.taskRNG.Reseed(rng.SubSeed(seed, streamTasks, uint64(pk.class), uint64(rep)))
		tasks, err := genSpec.Generate(ws.taskRNG)
		um.mu.Lock()
		if err != nil {
			return nil, nil, err
		}
		if cp.tasks == nil {
			cp.tasks = tasks
		}
	}
	return cp.tasks, pins, nil
}

// openLocked opens the replicate group gk, taking one use of the
// memoized pack pk (an undrawn memo entry when it is new).
func (um *unitModels) openLocked(gk groupKey, pk packKey) *repGroup {
	cp := um.packs[pk]
	if cp == nil {
		cp = &classPack{}
		um.packs[pk] = cp
	}
	cp.users++
	g := &repGroup{pack: cp, pins: um.cache.OpenGroup()}
	um.groups[gk] = g
	return g
}

// expect opens the replicate group (share, rep) for n units about to be
// dispatched; fixed runs call it before the group's first unit goes out.
func (um *unitModels) expect(share, rep, n int) {
	um.mu.Lock()
	um.openLocked(groupKey{share: share, rep: rep}, packKey{class: um.classes[share], rep: rep}).pending = n
	um.mu.Unlock()
}

// finish records that one dispatched unit of (point pi, replicate rep)
// is done — run or failed — and closes its group after the last one.
func (um *unitModels) finish(pi, rep int) {
	key := groupKey{share: um.shares[pi], rep: rep}
	um.mu.Lock()
	defer um.mu.Unlock()
	if g := um.groups[key]; g != nil {
		if g.pending--; g.pending == 0 {
			um.closeLocked(key, g)
		}
	}
}

// closeBelow closes every group of share class below replicate f for
// good — adaptive runs call it once no live point of the share class
// can run them.
func (um *unitModels) closeBelow(share, f int) {
	um.mu.Lock()
	defer um.mu.Unlock()
	if f <= um.closedBelow[share] {
		return
	}
	um.closedBelow[share] = f
	for key, g := range um.groups {
		if key.share == share && key.rep < f {
			um.closeLocked(key, g)
		}
	}
}

// closeAll closes every open group. Run defers it, so no pin outlives
// the campaign on any return path.
func (um *unitModels) closeAll() {
	um.mu.Lock()
	defer um.mu.Unlock()
	for key, g := range um.groups {
		um.closeLocked(key, g)
	}
}

// closeLocked drops a group: its cache pins and its use of the
// memoized pack, which is forgotten once no open group uses it.
func (um *unitModels) closeLocked(key groupKey, g *repGroup) {
	delete(um.groups, key)
	g.pins.Close()
	if g.pack.users--; g.pack.users == 0 {
		delete(um.packs, packKey{class: um.classes[key.share], rep: key.rep})
	}
}

// units yields every unrestored unit of a fixed campaign (reps
// replicates per point) group-major: pack class by pack class,
// replicate-major within one, so only a few groups are open at once.
// The share classes' groups of one replicate are opened together, with
// their unit counts, before their first unit is yielded, so they draw
// the replicate's pack once.
func (um *unitModels) units(reps int, restored []bool) iter.Seq[int] {
	return func(yield func(unit int) bool) {
		classShares := make([][]int, len(um.members))
		for s, points := range um.members {
			if points != nil {
				classShares[um.classes[s]] = append(classShares[um.classes[s]], s)
			}
		}
		for _, shares := range classShares {
			for rep := 0; rep < reps; rep++ {
				for _, s := range shares {
					n := 0
					for _, pi := range um.members[s] {
						if !restored[pi*reps+rep] {
							n++
						}
					}
					if n > 0 {
						um.expect(s, rep, n)
					}
				}
				for _, s := range shares {
					for _, pi := range um.members[s] {
						if unit := pi*reps + rep; !restored[unit] && !yield(unit) {
							return
						}
					}
				}
			}
		}
	}
}
