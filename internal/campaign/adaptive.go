package campaign

import (
	"fmt"
	"math"

	"cosched/internal/core"
	"cosched/internal/model"
	"cosched/internal/scenario"
	"cosched/internal/stats"
	"cosched/internal/workload"
)

// CellQuantiles are the quantiles an adaptive campaign tracks per cell
// through streaming P² sketches (fixed campaigns compute any quantile
// exactly from their raw samples).
var CellQuantiles = []float64{0.5, 0.95}

// metricCell is the streaming aggregate of one metric of one (point,
// policy) cell: Summary-compatible moments, a batch-means CI, and P²
// quantile sketches.
type metricCell struct {
	acc    stats.Accumulator
	bm     stats.BatchMeans
	quants *stats.QuantileSet
}

func (c *metricCell) add(x float64) {
	c.acc.Add(x)
	c.bm.Add(x)
	c.quants.Add(x)
}

// cellState is the streaming aggregate of one (point, policy) cell of an
// adaptive campaign: one metricCell per metric (just the makespan
// offline; the per-job online metrics behind it for online campaigns, so
// adaptive precision drives stretch exactly like makespan). Replicates
// fold in replicate order, so every field is a deterministic function of
// the folded prefix.
type cellState struct {
	m []metricCell
}

// add folds one replicate's metric vector (width len(c.m)).
func (c *cellState) add(vals []float64) {
	for k := range c.m {
		c.m[k].add(vals[k])
	}
}

// pointState is the controller state of one grid point.
type pointState struct {
	folded      int               // contiguous replicates folded into cells
	outstanding int               // replicates queued, in flight or awaiting the journal
	next        int               // first replicate never queued (lookahead mode)
	pending     map[int][]float64 // completed or restored, not yet folded
	stopped     bool
}

// adaptiveController sequences an adaptive campaign. Its state is
// guarded by the embedded driver's mu: pool jobs fold their own results
// and queue follow-up batches under it, and the calling goroutine takes
// it to acknowledge journaled replicates and mirror telemetry.
//
// Determinism contract: replicates fold strictly in replicate order per
// point (out-of-order completions buffer in pending), and the stopping
// rule is evaluated only when the folded count reaches a batch boundary
// — so every decision is a pure function of the folded prefix, which is
// itself a pure function of (spec, seed). Worker count and arrival order
// cannot change the outcome, only the wall-clock.
type adaptiveController struct {
	*driver
	sp        scenario.Spec
	res       *Result
	semantics core.Semantics
	trace     []workload.TraceArrival
	batch     int
	minReps   int
	maxReps   int
	conf      float64
	relHW     float64
	nm        int // metrics per policy (metricsPerPolicy)
	// lookahead, when positive, is the per-point speculation window of
	// Options.Parallel: advance keeps up to this many replicates queued
	// or in flight past the folded prefix instead of one batch at a
	// time. Speculated results arriving after the stopping rule fires
	// are discarded unfolded, so the window never changes the output,
	// only how fully a single point can occupy the worker pool.
	lookahead int
	points    []pointState
	done      int // folded replicates, including restored ones
	estTotal  int // points×max, shrunk as points stop early
	// free recycles per-replicate metric-vector buffers: folded vectors
	// return here, and each queued job carries one back out to a worker.
	// Steady-state adaptive batches therefore stop allocating per
	// replicate.
	free [][]float64
	// um is the campaign's model-sharing state: advance closes the
	// replicate groups no live point can still run. cacheStart lets
	// syncMetrics mirror the compiled-model cache's per-run counter
	// deltas into telemetry (um.cache may be nil).
	um         *unitModels
	cacheStart model.CacheStats
}

// runAdaptive executes a scenario carrying a precision block.
func runAdaptive(sp scenario.Spec, opt Options, points []scenario.RunPoint, policies []scenario.PolicySpec, semantics core.Semantics) (*Result, error) {
	prec := *sp.Precision
	nm := metricsPerPolicy(sp)
	res := &Result{Spec: sp, Points: points, Policies: policies, adaptive: true}
	res.Reps = make([]int, len(points))
	res.cells = make([][]cellState, len(points))
	for pi := range res.cells {
		cs := make([]cellState, len(policies))
		for qi := range cs {
			cs[qi].m = make([]metricCell, nm)
			for k := range cs[qi].m {
				cs[qi].m[k].bm = stats.NewBatchMeans(prec.BatchSize())
				cs[qi].m[k].quants = stats.NewQuantileSet(CellQuantiles...)
			}
		}
		res.cells[pi] = cs
	}
	trace, err := loadArrivalTrace(sp)
	if err != nil {
		return nil, err
	}

	c := &adaptiveController{
		sp:        sp,
		res:       res,
		semantics: semantics,
		trace:     trace,
		batch:     prec.BatchSize(),
		minReps:   prec.MinReps(),
		maxReps:   prec.MaxReplicates,
		conf:      prec.ConfidenceLevel(),
		relHW:     prec.RelHalfWidth,
		nm:        nm,
		points:    make([]pointState, len(points)),
	}
	c.estTotal = len(points) * c.maxReps
	for pi := range c.points {
		c.points[pi].pending = make(map[int][]float64)
	}
	// One in-flight batch per point bounds useful parallelism, unless
	// Parallel speculates past it.
	limit := len(points) * c.batch
	if opt.Parallel {
		limit = math.MaxInt
	}
	c.driver = newDriver(opt, poolWidth(opt, limit))
	defer c.close()
	if opt.Parallel {
		// Per-point mode: double-buffer the pool (a full complement of
		// replicates in flight plus the refill queued behind them),
		// rounded up to whole batches so speculation windows line up
		// with stopping-rule boundaries.
		la := 2 * c.pool.Workers()
		if r := la % c.batch; r != 0 {
			la += c.batch - r
		}
		c.lookahead = la
	}

	// The campaign's model-sharing state (pack classes, pack memo,
	// compiled-model cache; see models.go). Built before the first
	// advance, whose jobs capture it.
	c.um = newUnitModels(points, modelCacheFor(opt), true)
	defer c.um.closeAll()
	if opt.Metrics != nil {
		c.cacheStart = c.um.cache.Stats()
	}

	if opt.Manifest != nil {
		rcap := sp.ReplicateCap()
		_, err := opt.Manifest.restore(sp, len(policies), func(unit int, vals []float64) {
			c.points[unit/rcap].pending[unit%rcap] = vals
		})
		if err != nil {
			return nil, err
		}
	}
	// Replay restored prefixes through the stopping rule — resumed
	// campaigns honor prior batches — and queue the first live batch of
	// every point that is not already settled.
	c.mu.Lock()
	for pi := range c.points {
		c.advance(pi)
	}
	if opt.Progress != nil && c.done > 0 {
		opt.Progress(c.done, c.estTotal)
	}
	if m := opt.Metrics; m != nil {
		m.PointsPlanned.Set(float64(len(points)))
	}
	c.mu.Unlock()
	if err := c.wait(func(u journaledUnit) { c.accept(u.point, u.rep, u.vals) },
		func(u journaledUnit) { c.drop(u.point, u.vals) },
		func(acked bool) {
			if acked {
				c.progress()
			}
			c.syncMetrics()
		}); err != nil {
		return nil, err
	}
	return res, nil
}

// enqueue queues one replicate as a pool job, handing it a recycled
// metric buffer when one is free. The caller holds mu.
func (c *adaptiveController) enqueue(pi, rep int) {
	var buf []float64
	if n := len(c.free); n > 0 {
		buf, c.free = c.free[n-1], c.free[:n-1]
	}
	c.points[pi].outstanding++
	c.submit(func(ws *workerState, w int) { c.exec(ws, w, pi, rep, buf) })
}

// exec runs one queued replicate on a pool worker and hands the outcome
// to handle under mu. A job whose point stopped while it waited — queued
// speculation the stopping rule made moot — or that finds the campaign
// failed or canceled hands its buffer back without running: a never-run
// replicate, not a discarded result, so the output is unaffected.
func (c *adaptiveController) exec(ws *workerState, w, pi, rep int, buf []float64) {
	c.mu.Lock()
	if c.firstErr != nil || c.points[pi].stopped || canceled(c.opt.Cancel) {
		c.drop(pi, buf)
		c.finish()
		return
	}
	c.mu.Unlock()
	ws.bind(c.opt.Metrics, w)
	vals, err := ws.runUnit(c.sp, c.res.Points[pi], c.res.Policies, c.semantics, rep, c.um, c.trace)
	// runUnit reuses its buffer; the result outlives it, so it is copied
	// into the job's recycled one.
	buf = append(buf[:0], vals...)
	c.mu.Lock()
	c.handle(pi, rep, buf, err)
	c.finish()
}

// handle takes one replicate's outcome back under mu. A result is
// journaled and then accepted into its point's fold — at once without a
// synced manifest, else once the durable watermark covers its record
// (see driver.wait). Until then the replicate stays outstanding, so the
// point never re-queues it.
func (c *adaptiveController) handle(pi, rep int, vals []float64, err error) {
	acked := false
	if err != nil {
		err = fmt.Errorf("campaign: point %d (x=%v) rep %d: %w", pi, c.res.Points[pi].X, rep, err)
	} else {
		acked, err = c.journal(journaledUnit{point: pi, rep: rep, vals: vals}, pi*c.sp.ReplicateCap()+rep)
	}
	switch {
	case err != nil:
		c.fail(err)
		c.drop(pi, vals)
	case acked:
		c.accept(pi, rep, vals)
		c.progress()
	}
}

// accept settles one journaled replicate: it stops being outstanding
// and joins its point's fold.
func (c *adaptiveController) accept(pi, rep int, vals []float64) {
	ps := &c.points[pi]
	ps.outstanding--
	ps.pending[rep] = vals
	c.advance(pi)
}

// drop settles a replicate that will never fold (skipped, failed, or
// never made durable), recycling its buffer.
func (c *adaptiveController) drop(pi int, vals []float64) {
	c.points[pi].outstanding--
	if vals != nil {
		c.free = append(c.free, vals)
	}
}

// progress reports the folded (hence durable) replicate count.
func (c *adaptiveController) progress() {
	if c.opt.Progress != nil {
		c.opt.Progress(c.done, c.estTotal)
	}
}

// advance folds the point's contiguous pending replicates, evaluates the
// stopping rule at batch boundaries, and — when the current batch is
// fully folded and the point continues — queues the next one. After an
// error no new work is queued; already-queued jobs drain harmlessly.
func (c *adaptiveController) advance(pi int) {
	ps := &c.points[pi]
	folded := ps.folded
	for !ps.stopped {
		vals, ok := ps.pending[ps.folded]
		if !ok {
			break
		}
		delete(ps.pending, ps.folded)
		cells := c.res.cells[pi]
		for qi := range cells {
			cells[qi].add(vals[qi*c.nm : (qi+1)*c.nm])
		}
		c.free = append(c.free, vals)
		ps.folded++
		c.res.Reps[pi] = ps.folded
		c.done++
		if ps.folded == c.maxReps || ps.folded%c.batch == 0 {
			// The stop accounting runs exactly once, at the transition:
			// in lookahead mode speculated results keep arriving (and
			// re-entering advance) after the point has stopped.
			if ps.stopped = c.shouldStop(pi); ps.stopped {
				c.estTotal -= c.maxReps - ps.folded
				if m := c.opt.Metrics; m != nil {
					m.PointsStopped.Inc()
				}
			}
		}
	}
	if ps.folded != folded {
		c.closeGroups(pi)
	}
	if ps.stopped {
		return
	}
	if c.firstErr != nil {
		return
	}
	if c.lookahead > 0 {
		// Per-point parallel mode: keep the speculation window topped
		// up past the folded prefix. next only moves forward, so no
		// replicate is ever queued twice; restored replicates already
		// sitting in pending are skipped.
		end := ps.folded + c.lookahead
		if end > c.maxReps {
			end = c.maxReps
		}
		if ps.next < ps.folded {
			ps.next = ps.folded
		}
		for ; ps.next < end; ps.next++ {
			if _, ok := ps.pending[ps.next]; ok {
				continue
			}
			c.enqueue(pi, ps.next)
		}
		return
	}
	if ps.outstanding > 0 {
		return
	}
	// Queue the unfinished remainder of the batch containing folded.
	// Restored replicates already sitting in pending are skipped, so a
	// resume re-runs only what the interrupted campaign never journaled.
	batchEnd := (ps.folded/c.batch + 1) * c.batch
	if batchEnd > c.maxReps {
		batchEnd = c.maxReps
	}
	for rep := ps.folded; rep < batchEnd; rep++ {
		if _, ok := ps.pending[rep]; ok {
			continue
		}
		c.enqueue(pi, rep)
	}
}

// closeGroups closes the replicate groups of pi's share class that no
// live point of the class can still run: every group below the smallest
// folded count among its live points, or all of them once every point
// stopped. Stopped points pin nothing.
func (c *adaptiveController) closeGroups(pi int) {
	share := c.um.shares[pi]
	f := math.MaxInt
	for _, p := range c.um.members[share] {
		if ps := &c.points[p]; !ps.stopped && ps.folded < f {
			f = ps.folded
		}
	}
	c.um.closeBelow(share, f)
}

// syncMetrics mirrors the controller's progress state into the attached
// telemetry campaign. Its caller holds mu, so plain gauge stores
// suffice.
func (c *adaptiveController) syncMetrics() {
	m := c.opt.Metrics
	if m == nil {
		return
	}
	m.UnitsDone.Set(float64(c.done))
	m.UnitsPlanned.Set(float64(c.estTotal))
	m.QueueDepth.Set(float64(c.inflight + len(c.unacked)))
	m.RepsSaved.Set(float64(len(c.points)*c.maxReps - c.estTotal))
	m.SetModelCache(cacheObs(c.um.cache.Stats().Delta(c.cacheStart)))
}

// shouldStop evaluates the sequential stopping rule for one point: stop
// at the replicate cap, never before the floor, and otherwise only once
// every policy's batch-means CI half-width is within the target relative
// to its mean — for the makespan and, in online campaigns, the mean
// stretch as well (response/wait/utilization are reported but do not
// gate stopping: queue wait can be legitimately zero-mean, where a
// relative CI target is undefined).
func (c *adaptiveController) shouldStop(pi int) bool {
	ps := &c.points[pi]
	if ps.folded >= c.maxReps {
		return true
	}
	if ps.folded < c.minReps {
		return false
	}
	cells := c.res.cells[pi]
	for qi := range cells {
		if !cells[qi].m[MetricMakespan].bm.Converged(c.conf, c.relHW) {
			return false
		}
		if c.nm > 1 && !cells[qi].m[MetricStretch].bm.Converged(c.conf, c.relHW) {
			return false
		}
	}
	return true
}
