package campaign

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"cosched/internal/core"
	"cosched/internal/model"
	"cosched/internal/scenario"
	"cosched/internal/stats"
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

// unitJob is one dispatched replicate. buf, when non-nil, is a recycled
// metric-vector buffer from the coordinator's free list; the worker
// copies the unit's results into it, and the coordinator reclaims it
// after folding. Steady-state adaptive batches therefore stop
// allocating per replicate.
type unitJob struct {
	point, rep int
	buf        []float64
}

// journaledUnit is a completed replicate waiting for the journal's
// durable watermark to reach its record's sequence number.
type journaledUnit struct {
	seq        uint64
	point, rep int
	vals       []float64
}

type unitResult struct {
	point, rep int
	vals       []float64 // metricsPerPolicy values per policy
	err        error
	// skip marks a unit that was dispatched but never ran because the
	// campaign was canceled first: it only drains inflight accounting
	// (vals, when non-nil, is the job's recycled buffer coming home).
	skip bool
}

// adaptiveController sequences an adaptive campaign. All state is owned
// by the coordinating goroutine; workers only see jobs and results.
//
// Determinism contract: replicates fold strictly in replicate order per
// point (out-of-order completions buffer in pending), and the stopping
// rule is evaluated only when the folded count reaches a batch boundary
// — so every decision is a pure function of the folded prefix, which is
// itself a pure function of (spec, seed). Worker count and arrival order
// cannot change the outcome, only the wall-clock.
type adaptiveController struct {
	sp      scenario.Spec
	opt     Options
	res     *Result
	batch   int
	minReps int
	maxReps int
	conf    float64
	relHW   float64
	nm      int // metrics per policy (metricsPerPolicy)
	// lookahead, when positive, is the per-point speculation window of
	// Options.Parallel: advance keeps up to this many replicates queued
	// or in flight past the folded prefix instead of one batch at a
	// time. Speculated results arriving after the stopping rule fires
	// are discarded unfolded, so the window never changes the output,
	// only how fully a single point can occupy the worker pool.
	lookahead int
	points    []pointState
	queue     []unitJob
	inflight  int // queued + dispatched, not yet handled
	done      int // folded replicates, including restored ones
	estTotal  int // points×max, shrunk as points stop early
	firstErr  error
	// submit, when set (shared-pool mode), dispatches a job immediately
	// instead of parking it on queue for the private-worker coordinator.
	submit func(unitJob)
	// free recycles per-replicate metric-vector buffers: folded vectors
	// return here, queued jobs carry one back out to a worker. Owned by
	// the coordinating goroutine; hand-off happens through the job and
	// result structs, never by sharing.
	free [][]float64
	// unacked holds, in journal order, completed units whose records a
	// synced manifest has not yet made durable. They fold (and count as
	// done) only once the durable watermark covers them.
	unacked []journaledUnit
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

	c := &adaptiveController{
		sp:      sp,
		opt:     opt,
		res:     res,
		batch:   prec.BatchSize(),
		minReps: prec.MinReps(),
		maxReps: prec.MaxReplicates,
		conf:    prec.ConfidenceLevel(),
		relHW:   prec.RelHalfWidth,
		nm:      nm,
		points:  make([]pointState, len(points)),
	}
	c.estTotal = len(points) * c.maxReps
	for pi := range c.points {
		c.points[pi].pending = make(map[int][]float64)
	}

	workers := opt.Workers
	if opt.Pool != nil {
		workers = opt.Pool.Workers()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opt.Parallel {
		// Per-point mode: double-buffer the pool (a full complement of
		// replicates in flight plus the refill queued behind them),
		// rounded up to whole batches so speculation windows line up
		// with stopping-rule boundaries.
		la := 2 * workers
		if r := la % c.batch; r != 0 {
			la += c.batch - r
		}
		c.lookahead = la
	} else if opt.Pool == nil {
		if maxPar := len(points) * c.batch; workers > maxPar {
			// One in-flight batch per point bounds useful parallelism.
			workers = maxPar
		}
	}
	if workers < 1 {
		workers = 1
	}

	// The campaign's model-sharing state (pack classes, pack memo,
	// compiled-model cache; see models.go), plus the once-per-campaign
	// arrival trace. Built before the first advance: in shared-pool mode
	// enqueue submits jobs immediately, and those jobs capture it.
	um := newUnitModels(points, modelCacheFor(opt), true)
	defer um.closeAll()
	c.um = um
	if opt.Metrics != nil {
		c.cacheStart = um.cache.Stats()
	}
	trace, err := loadArrivalTrace(sp)
	if err != nil {
		return nil, err
	}

	results := make(chan unitResult, workers)
	// exec runs one dispatched replicate on an arena and reports back to
	// the coordinator — the worker body of both execution modes. A job
	// finding the campaign already canceled skips the work but still
	// reports, so inflight accounting always drains.
	exec := func(ws *workerState, w int, job unitJob) {
		if canceled(opt.Cancel) {
			results <- unitResult{point: job.point, rep: job.rep, skip: true, vals: job.buf}
			return
		}
		ws.bind(opt.Metrics, w)
		vals, err := ws.runUnit(sp, points[job.point], policies, semantics, job.rep, um, trace)
		r := unitResult{point: job.point, rep: job.rep, err: err}
		if err == nil {
			// runUnit reuses its buffer; the result outlives it,
			// so it is copied — into the job's recycled buffer
			// when the coordinator attached one.
			buf := job.buf
			if cap(buf) < len(vals) {
				buf = make([]float64, len(vals))
			}
			buf = buf[:len(vals)]
			copy(buf, vals)
			r.vals = buf
		}
		results <- r
	}
	if opt.Pool != nil {
		c.submit = func(job unitJob) {
			opt.Pool.submit(opt.Client, func(ws *workerState, w int) { exec(ws, w, job) })
		}
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
	// campaigns honor prior batches — and schedule the first live batch
	// of every point that is not already settled.
	for pi := range c.points {
		c.advance(pi)
	}
	if opt.Progress != nil && c.done > 0 {
		opt.Progress(c.done, c.estTotal)
	}
	if m := opt.Metrics; m != nil {
		m.PointsPlanned.Set(float64(len(points)))
	}
	c.syncMetrics()

	if opt.Pool != nil {
		// Shared-pool mode: jobs were submitted by enqueue as advance
		// queued them; the coordinator only folds results (each of which
		// may submit follow-up batches through advance → enqueue).
		var durable <-chan struct{}
		for c.inflight > 0 || len(c.unacked) > 0 {
			select {
			case r := <-results:
				if c.firstErr == nil && canceled(opt.Cancel) {
					// Journal this result but queue nothing beyond it.
					c.firstErr = ErrCanceled
				}
				c.handle(r)
			case <-durable:
			}
			durable = c.ackJournal()
			c.syncMetrics()
		}
		if c.firstErr != nil {
			return nil, c.firstErr
		}
		if canceled(opt.Cancel) {
			return nil, ErrCanceled
		}
		return res, nil
	}

	jobs := make(chan unitJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := getWorkerState()
			defer putWorkerState(ws)
			for job := range jobs {
				exec(ws, w, job)
			}
		}(w)
	}

	// Coordinator: interleave dispatching queued jobs with folding
	// results until every point has stopped and nothing is in flight.
	cancelWatch := opt.Cancel
	var durable <-chan struct{}
	for c.inflight > 0 || len(c.unacked) > 0 {
		// Speculated jobs whose point has since stopped — or any queued
		// job after an error or cancellation — are dropped here instead
		// of dispatched: never-run replicates, not discarded results, so
		// the output is unaffected either way.
		for len(c.queue) > 0 && (c.points[c.queue[0].point].stopped || c.firstErr != nil) {
			job := c.queue[0]
			c.queue = c.queue[1:]
			c.points[job.point].outstanding--
			c.inflight--
			if job.buf != nil {
				c.free = append(c.free, job.buf)
			}
		}
		if c.inflight == 0 && len(c.unacked) == 0 {
			break
		}
		var dispatch chan unitJob
		var next unitJob
		if len(c.queue) > 0 {
			dispatch, next = jobs, c.queue[0]
		}
		select {
		case dispatch <- next:
			c.queue = c.queue[1:]
			continue
		case r := <-results:
			c.handle(r)
		case <-durable:
		case <-cancelWatch: // nil without Options.Cancel: never ready
			// Stop queueing (advance checks firstErr) and let the next
			// loop turn drop the queued remainder; in-flight units drain
			// normally and are journaled.
			if c.firstErr == nil {
				c.firstErr = ErrCanceled
			}
			cancelWatch = nil
			continue
		}
		durable = c.ackJournal()
		c.syncMetrics()
	}
	c.syncMetrics() // the last turn may only have dropped queued jobs
	close(jobs)
	wg.Wait()
	if c.firstErr != nil {
		return nil, c.firstErr
	}
	if canceled(opt.Cancel) {
		return nil, ErrCanceled
	}
	return res, nil
}

// handle takes one dispatched job back from a worker. A result is
// journaled and then accepted into its point's fold — at once without a
// synced manifest, else once the durable watermark covers its record
// (see ackJournal). Until then the replicate stays outstanding, so the
// point never re-queues it.
func (c *adaptiveController) handle(r unitResult) {
	c.inflight--
	if r.skip || r.err != nil {
		if r.err != nil && c.firstErr == nil {
			c.firstErr = fmt.Errorf("campaign: point %d (x=%v) rep %d: %w",
				r.point, c.res.Points[r.point].X, r.rep, r.err)
		}
		c.drop(r.point, r.vals)
		return
	}
	if c.opt.Manifest != nil {
		unit := r.point*c.sp.ReplicateCap() + r.rep
		seq, acked, err := c.opt.Manifest.write("unit", manifestUnit{Unit: unit, Makespans: r.vals})
		if err != nil {
			if c.firstErr == nil {
				c.firstErr = err
			}
			c.drop(r.point, r.vals)
			return
		}
		if !acked {
			c.unacked = append(c.unacked, journaledUnit{seq: seq, point: r.point, rep: r.rep, vals: r.vals})
			return
		}
	}
	c.accept(r.point, r.rep, r.vals)
	c.progress()
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

// ackJournal accepts every unacknowledged replicate the journal's
// durable watermark now covers and returns a channel that closes when
// the watermark next moves — nil once nothing waits on it. A failed
// fsync fails the campaign and discards the replicates it never covered:
// they are never folded, so never reported done.
func (c *adaptiveController) ackJournal() <-chan struct{} {
	if len(c.unacked) == 0 {
		return nil
	}
	w, advanced, err := c.opt.Manifest.watermark()
	n := 0
	for n < len(c.unacked) && c.unacked[n].seq <= w {
		u := c.unacked[n]
		c.accept(u.point, u.rep, u.vals)
		n++
	}
	c.unacked = c.unacked[:copy(c.unacked, c.unacked[n:])]
	if n > 0 {
		c.progress()
	}
	if err != nil {
		if c.firstErr == nil {
			c.firstErr = err
		}
		for _, u := range c.unacked {
			c.drop(u.point, u.vals)
		}
		c.unacked = c.unacked[:0]
	}
	if len(c.unacked) == 0 {
		return nil
	}
	return advanced
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

// enqueue queues one replicate, handing it a recycled metric buffer when
// one is free.
func (c *adaptiveController) enqueue(pi, rep int) {
	job := unitJob{point: pi, rep: rep}
	if n := len(c.free); n > 0 {
		job.buf, c.free = c.free[n-1], c.free[:n-1]
	}
	c.points[pi].outstanding++
	c.inflight++
	if c.submit != nil {
		c.submit(job)
		return
	}
	c.queue = append(c.queue, job)
}

// syncMetrics mirrors the controller's progress state into the attached
// telemetry campaign. Only the coordinating goroutine calls it, so plain
// gauge stores suffice.
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
