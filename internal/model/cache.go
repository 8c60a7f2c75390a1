package model

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// DefaultCacheBytes is the default idle-byte budget of a Cache: enough
// for hundreds of paper-scale tables (n = 100, p = 1000 is ~450 KB)
// without threatening a laptop.
const DefaultCacheBytes = 1 << 28 // 256 MiB

// cacheShardCount spreads the cache's key maps over independently
// locked shards. Sharding is by base key (pack, cost model, platform),
// so every resilience variant of one pack lands in one shard and a miss
// can scan its shard for a delta base without a second lock.
const cacheShardCount = 16

// Cache is a content-addressed, ref-counted cache of compiled instance
// models, shared by every campaign worker in the process. The key is
// (task-pack content, Resilience, CostModel, P): a cheap structural hash
// buckets candidates, and every hit is confirmed by an exact content
// compare — hash collisions cost a compare, never a wrong table.
//
// Entries are immutable after publish: Acquire hands out read-only
// *Compiled handles and a hold count keeps the arena alive until the
// last Release. A near-miss — same pack, platform and cost model,
// different resilience parameters — is built by Compiled.RecompileDelta
// from a resident base entry, rewriting only the parameter-dependent
// columns; the result is bit-identical to a cold Compile (the cache's
// whole contract; see DESIGN.md §15). Packs containing profile types
// this package cannot compare by content are refused (Acquire returns
// nil) and the caller compiles privately.
//
// Residency: an entry stays resident while an Acquire holds it or an
// open CacheGroup pins it. Entries that are neither — idle entries — are
// kept only within the cache's byte budget, one global budget charged
// by column capacity and enforced on every Release and Close, evicting
// the least recently idled first. Evicted arenas are recycled through a
// sync.Pool, so a churning cache reuses table columns instead of
// allocating them.
//
// A nil *Cache is valid and never caches.
type Cache struct {
	budget int64 // bytes of idle entries kept resident
	shards [cacheShardCount]cacheShard
	pool   sync.Pool // recycled *Compiled arenas

	// idle lists the entries no Acquire holds and no group pins, oldest
	// first; the eviction order. Guarded by idleMu, which nests inside
	// the shard locks.
	idleMu    sync.Mutex
	idleHead  *CacheEntry
	idleTail  *CacheEntry
	idleBytes int64

	hits        atomic.Uint64
	misses      atomic.Uint64
	deltaBuilds atomic.Uint64
	fullBuilds  atomic.Uint64
	evictions   atomic.Uint64
	bytes       atomic.Int64
	peak        atomic.Int64
	entries     atomic.Int64
	groups      atomic.Int64
}

type cacheShard struct {
	mu sync.Mutex
	// full buckets entries by the full key (pack, rc, p, res); base
	// buckets the same entries by the base key (pack, rc, p) for
	// delta-base lookups. Buckets are small slices: collisions are rare
	// and every candidate is verified by content anyway.
	full map[uint64][]*CacheEntry
	base map[uint64][]*CacheEntry
	// building lists the entries whose compile is in flight; they join
	// full and base when it finishes.
	building []*CacheEntry
}

// CacheEntry is one published compiled model plus its reference
// counts. The tables behind Compiled() are immutable while the entry is
// held; callers must treat them as read-only and must not call
// Recompile, AppendTask or TruncateExtra on them.
type CacheEntry struct {
	cache   *Cache
	shard   *cacheShard
	c       *Compiled
	fullKey uint64
	baseKey uint64
	bytes   int64
	// The key the entry was built for, compared on every lookup.
	tasks []Task
	res   Resilience
	rc    CostModel
	p     int
	// built is released when the entry's compile finishes (or fails).
	built sync.WaitGroup
	// holds (outstanding Acquires) and pins (open groups pinning the
	// entry) are guarded by shard.mu. Only an entry with neither is on
	// the idle list, so eviction can never recycle a table under a
	// reader.
	holds int
	pins  int
	// idle list links and membership, guarded by cache.idleMu.
	prev, next *CacheEntry
	idle       bool
}

// Compiled returns the entry's immutable compiled model.
func (e *CacheEntry) Compiled() *Compiled { return e.c }

// CacheStats is a point-in-time counter snapshot. The counters are
// cumulative over the cache's lifetime; ResidentBytes, Entries and
// OpenGroups are levels, PeakResidentBytes the high-water mark of
// ResidentBytes since the cache was built or ResetPeak last ran.
type CacheStats struct {
	Hits              uint64
	Misses            uint64
	DeltaBuilds       uint64 // misses served by RecompileDelta's column reuse
	FullBuilds        uint64 // misses that paid a cold compile
	Evictions         uint64
	ResidentBytes     int64
	Entries           int64
	PeakResidentBytes int64
	OpenGroups        int64
}

// Delta returns the counter difference s − prev, keeping the level
// fields (ResidentBytes, Entries, PeakResidentBytes, OpenGroups) at
// their current values — the shape a per-campaign report wants from a
// process-lifetime cache.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	d := s
	d.Hits -= prev.Hits
	d.Misses -= prev.Misses
	d.DeltaBuilds -= prev.DeltaBuilds
	d.FullBuilds -= prev.FullBuilds
	d.Evictions -= prev.Evictions
	return d
}

// NewCache returns a cache that keeps up to maxBytes of idle table
// bytes resident (DefaultCacheBytes when maxBytes ≤ 0), on top of the
// entries currently held or pinned. A budget smaller than any table
// keeps nothing idle: every entry is evicted on its last Release or
// Close.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	ch := &Cache{budget: maxBytes}
	for i := range ch.shards {
		ch.shards[i].full = make(map[uint64][]*CacheEntry)
		ch.shards[i].base = make(map[uint64][]*CacheEntry)
	}
	return ch
}

// Stats returns the cache's counters. All counters are maintained
// atomically, so Stats is cheap enough for per-unit telemetry.
func (ch *Cache) Stats() CacheStats {
	if ch == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:              ch.hits.Load(),
		Misses:            ch.misses.Load(),
		DeltaBuilds:       ch.deltaBuilds.Load(),
		FullBuilds:        ch.fullBuilds.Load(),
		Evictions:         ch.evictions.Load(),
		ResidentBytes:     ch.bytes.Load(),
		Entries:           ch.entries.Load(),
		PeakResidentBytes: ch.peak.Load(),
		OpenGroups:        ch.groups.Load(),
	}
}

// ResetPeak restarts the PeakResidentBytes high-water mark at the
// current resident level, so a driver can measure one stretch of work.
func (ch *Cache) ResetPeak() {
	if ch != nil {
		ch.peak.Store(ch.bytes.Load())
	}
}

// Acquire returns a published entry for (tasks, res, rc, p), compiling
// and publishing one on a miss. The caller must Release the entry when
// its unit of work completes. A nil entry with a nil error means the
// pack is uncacheable (unknown profile type) and the caller should
// compile privately. On a hit the returned tables are byte-identical to
// a fresh Compile of the same arguments.
func (ch *Cache) Acquire(tasks []Task, res Resilience, rc CostModel, p int) (*CacheEntry, error) {
	if ch == nil {
		return nil, nil
	}
	bk, ok := packBaseKey(tasks, rc, p)
	if !ok {
		return nil, nil
	}
	fk := resFullKey(bk, res)
	sh := &ch.shards[bk%cacheShardCount]

	sh.mu.Lock()
	var baseE *CacheEntry
	for {
		if e := sh.lookupLocked(fk, tasks, res, rc, p); e != nil {
			ch.holdLocked(e)
			sh.mu.Unlock()
			ch.hits.Add(1)
			return e, nil
		}
		// A miss builds from a delta base — any resident entry over the
		// same pack, cost model and platform — when there is one. Another
		// worker already compiling this key, or this pack while no base is
		// resident, is waited for instead: its table is then a hit or a
		// delta base, never a second compile of the same columns.
		keyBuild, packBuild := sh.buildingLocked(fk, tasks, res, rc, p)
		if keyBuild == nil {
			if baseE = sh.baseLocked(bk, tasks, rc, p); baseE != nil || packBuild == nil {
				break
			}
		}
		w := keyBuild
		if w == nil {
			w = packBuild
		}
		sh.mu.Unlock()
		w.built.Wait()
		sh.mu.Lock()
	}
	// Hold the base before unlocking, so it cannot be evicted or
	// recycled while we read its columns.
	if baseE != nil {
		ch.holdLocked(baseE)
	}
	e := &CacheEntry{
		cache:   ch,
		shard:   sh,
		fullKey: fk,
		baseKey: bk,
		tasks:   tasks,
		res:     res,
		rc:      rc,
		p:       p,
		holds:   1, // the caller
	}
	e.built.Add(1)
	sh.building = append(sh.building, e)
	sh.mu.Unlock()
	ch.misses.Add(1)

	build := ch.getArena()
	var baseC *Compiled
	if baseE != nil {
		baseC = baseE.c
	}
	delta, err := build.RecompileDelta(baseC, tasks, res, rc, p)
	baseE.Release()

	sh.mu.Lock()
	sh.building = removeEntry(sh.building, e)
	if err == nil {
		e.c = build
		e.bytes = compiledBytes(build)
		sh.link(e)
	}
	sh.mu.Unlock()
	e.built.Done()
	if err != nil {
		ch.putArena(build)
		return nil, err
	}
	if delta {
		ch.deltaBuilds.Add(1)
	} else {
		ch.fullBuilds.Add(1)
	}
	ch.entries.Add(1)
	ch.raisePeak(ch.bytes.Add(e.bytes))
	return e, nil
}

// raisePeak lifts the PeakResidentBytes high-water mark to resident.
func (ch *Cache) raisePeak(resident int64) {
	for peak := ch.peak.Load(); resident > peak; peak = ch.peak.Load() {
		if ch.peak.CompareAndSwap(peak, resident) {
			return
		}
	}
}

// Release returns one Acquire's hold. An entry left neither held nor
// pinned becomes idle and may be evicted at once. Safe on a nil entry.
func (e *CacheEntry) Release() {
	if e == nil {
		return
	}
	ch := e.cache
	e.shard.mu.Lock()
	e.holds--
	ch.idleIfUnusedLocked(e)
	e.shard.mu.Unlock()
	ch.evict()
}

// CacheGroup pins cache entries on behalf of a group of units that
// reuse them — a campaign's replicate group, whose points share one
// pack. A pinned entry stays resident, outside the idle budget, until
// the group closes. A nil *CacheGroup pins nothing.
type CacheGroup struct {
	cache  *Cache
	mu     sync.Mutex
	pinned []*CacheEntry
	closed bool
	inline [8]*CacheEntry // pinned's first backing array
}

// OpenGroup returns a new open group (nil on a nil cache).
func (ch *Cache) OpenGroup() *CacheGroup {
	if ch == nil {
		return nil
	}
	ch.groups.Add(1)
	g := &CacheGroup{cache: ch}
	g.pinned = g.inline[:0]
	return g
}

// Pin keeps e resident until the group closes. The caller must hold e
// (between its Acquire and Release). Pinning an entry the group already
// pins, pinning into a closed group, and pinning a nil entry are no-ops.
func (g *CacheGroup) Pin(e *CacheEntry) {
	if g == nil || e == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	for _, p := range g.pinned {
		if p == e {
			return
		}
	}
	e.shard.mu.Lock()
	e.pins++
	e.shard.mu.Unlock()
	g.pinned = append(g.pinned, e)
}

// Close drops every pin the group holds; entries left neither held nor
// pinned become idle and fall under the budget. Closing twice is a
// no-op.
func (g *CacheGroup) Close() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	pinned := g.pinned
	g.pinned = nil
	g.mu.Unlock()
	ch := g.cache
	for _, e := range pinned {
		e.shard.mu.Lock()
		e.pins--
		ch.idleIfUnusedLocked(e)
		e.shard.mu.Unlock()
	}
	ch.groups.Add(-1)
	ch.evict()
}

// holdLocked takes one hold on a resident entry, lifting it off the
// idle list. The caller holds e.shard.mu.
func (ch *Cache) holdLocked(e *CacheEntry) {
	if e.holds == 0 && e.pins == 0 {
		ch.idleMu.Lock()
		ch.unlinkIdleLocked(e)
		ch.idleMu.Unlock()
	}
	e.holds++
}

// idleIfUnusedLocked appends e to the idle list once nothing holds or
// pins it. The caller holds e.shard.mu.
func (ch *Cache) idleIfUnusedLocked(e *CacheEntry) {
	if e.holds != 0 || e.pins != 0 {
		return
	}
	ch.idleMu.Lock()
	e.idle = true
	e.prev, e.next = ch.idleTail, nil
	if ch.idleTail != nil {
		ch.idleTail.next = e
	} else {
		ch.idleHead = e
	}
	ch.idleTail = e
	ch.idleBytes += e.bytes
	ch.idleMu.Unlock()
}

// unlinkIdleLocked removes e from the idle list. The caller holds
// ch.idleMu.
func (ch *Cache) unlinkIdleLocked(e *CacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		ch.idleHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		ch.idleTail = e.prev
	}
	e.prev, e.next, e.idle = nil, nil, false
	ch.idleBytes -= e.bytes
}

// evict enforces the idle budget, oldest idle entry first. It runs
// with no lock held: the victim's shard lock must be taken before
// idleMu, so each round re-checks under both that the victim is still
// idle (a concurrent hit may have taken it back) and still over budget.
func (ch *Cache) evict() {
	for {
		ch.idleMu.Lock()
		e := ch.idleHead
		if e == nil || ch.idleBytes <= ch.budget {
			ch.idleMu.Unlock()
			return
		}
		ch.idleMu.Unlock()

		sh := e.shard
		sh.mu.Lock()
		ch.idleMu.Lock()
		if !e.idle || ch.idleBytes <= ch.budget {
			ch.idleMu.Unlock()
			sh.mu.Unlock()
			continue
		}
		ch.unlinkIdleLocked(e)
		ch.idleMu.Unlock()
		sh.unlink(e)
		c := e.c
		e.c = nil
		sh.mu.Unlock()
		ch.bytes.Add(-e.bytes)
		ch.entries.Add(-1)
		ch.evictions.Add(1)
		ch.putArena(c)
	}
}

// lookupLocked finds a published entry with exactly this content.
// Candidates from the hash bucket are verified field-by-field — the
// pack compare takes the pointer fast path when the caller passes the
// entry's own pack (same slice), and falls back to a full content
// compare.
func (sh *cacheShard) lookupLocked(fk uint64, tasks []Task, res Resilience, rc CostModel, p int) *CacheEntry {
	for _, e := range sh.full[fk] {
		if e.res == res && e.sameBase(tasks, rc, p) {
			return e
		}
	}
	return nil
}

// baseLocked finds a published entry over the same pack, cost model and
// platform — a delta base.
func (sh *cacheShard) baseLocked(bk uint64, tasks []Task, rc CostModel, p int) *CacheEntry {
	for _, e := range sh.base[bk] {
		if e.sameBase(tasks, rc, p) {
			return e
		}
	}
	return nil
}

// buildingLocked scans the compiles in flight for one of exactly this
// key and for one over the same pack, cost model and platform.
func (sh *cacheShard) buildingLocked(fk uint64, tasks []Task, res Resilience, rc CostModel, p int) (keyBuild, packBuild *CacheEntry) {
	for _, e := range sh.building {
		if !e.sameBase(tasks, rc, p) {
			continue
		}
		if e.fullKey == fk && e.res == res {
			return e, e
		}
		if packBuild == nil {
			packBuild = e
		}
	}
	return nil, packBuild
}

// sameBase reports whether e is keyed by this pack, cost model and
// platform.
func (e *CacheEntry) sameBase(tasks []Task, rc CostModel, p int) bool {
	return e.rc == rc && e.p == p && samePack(tasks, e.tasks)
}

// samePack is PacksEqual with the same-slice fast path.
func samePack(a, b []Task) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	eq, ok := PacksEqual(a, b)
	return ok && eq
}

// link publishes e at the tail of its full- and base-key buckets, so
// lookups meet older entries first.
func (sh *cacheShard) link(e *CacheEntry) {
	sh.full[e.fullKey] = append(sh.full[e.fullKey], e)
	sh.base[e.baseKey] = append(sh.base[e.baseKey], e)
}

// unlink removes e from both buckets, dropping emptied map keys.
func (sh *cacheShard) unlink(e *CacheEntry) {
	if sh.full[e.fullKey] = removeEntry(sh.full[e.fullKey], e); len(sh.full[e.fullKey]) == 0 {
		delete(sh.full, e.fullKey)
	}
	if sh.base[e.baseKey] = removeEntry(sh.base[e.baseKey], e); len(sh.base[e.baseKey]) == 0 {
		delete(sh.base, e.baseKey)
	}
}

func removeEntry(s []*CacheEntry, e *CacheEntry) []*CacheEntry {
	for i, x := range s {
		if x == e {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// getArena takes a recycled Compiled (warm column capacity, monotone
// gen — the (pointer, Gen) identity contract survives recycling) or a
// fresh one.
func (ch *Cache) getArena() *Compiled {
	if v := ch.pool.Get(); v != nil {
		return v.(*Compiled)
	}
	return &Compiled{}
}

// putArena recycles an arena, dropping its pack reference so a pooled
// arena does not keep an evicted pack alive.
func (ch *Cache) putArena(c *Compiled) {
	if c != nil {
		c.tasks = nil
		ch.pool.Put(c)
	}
}

// compiledBytes charges an entry's resident footprint to the budget:
// the capacity of every column — a recycled arena keeps the capacity of
// the largest table it ever held — plus the task headers.
func compiledBytes(c *Compiled) int64 {
	cols := cap(c.tj) + cap(c.ck) + cap(c.rec) + cap(c.tau) + cap(c.work) + cap(c.lj) +
		cap(c.expFac) + cap(c.prefac) + cap(c.expPer) + cap(c.slj) + cap(c.v) + cap(c.data)
	return int64(cols)*8 + int64(cap(c.seg))*int64(unsafe.Sizeof(segKind(0))) +
		int64(len(c.tasks))*int64(unsafe.Sizeof(Task{}))
}

// packBaseKey hashes the resilience-independent half of the cache key:
// pack content, cost model and platform size. ok is false when the pack
// holds a profile type the cache cannot compare by content.
func packBaseKey(tasks []Task, rc CostModel, p int) (key uint64, ok bool) {
	h := fnvOffset
	h = mix64(h, uint64(len(tasks)))
	for i := range tasks {
		t := &tasks[i]
		h = mix64(h, uint64(int64(t.ID)))
		h = mix64(h, math.Float64bits(t.Data))
		h = mix64(h, math.Float64bits(t.Ckpt))
		h = mix64(h, math.Float64bits(t.Verify))
		pv, pok := profileValue(t.Profile)
		if !pok {
			return 0, false
		}
		switch pr := pv.(type) {
		case Synthetic:
			h = mix64(h, 1)
			h = mix64(h, math.Float64bits(pr.M))
			h = mix64(h, math.Float64bits(pr.SeqFraction))
		case Table:
			h = mix64(h, 2)
			h = mix64(h, uint64(len(pr.Times)))
			for _, v := range pr.Times {
				h = mix64(h, math.Float64bits(v))
			}
		default:
			return 0, false
		}
	}
	h = mix64(h, math.Float64bits(rc.Latency))
	h = mix64(h, math.Float64bits(rc.InvBandwidth))
	h = mix64(h, uint64(int64(p)))
	return h, true
}

// resFullKey extends a base key with the resilience parameters.
func resFullKey(bk uint64, res Resilience) uint64 {
	h := bk
	h = mix64(h, math.Float64bits(res.Lambda))
	h = mix64(h, math.Float64bits(res.Downtime))
	h = mix64(h, uint64(int64(res.Rule)))
	h = mix64(h, math.Float64bits(res.SilentLambda))
	return h
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// mix64 folds one 64-bit word into an FNV-1a running hash, byte by byte
// (little-endian), matching the reference FNV-1a stream over the word's
// bytes.
func mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
