package campaign

import (
	"errors"
	"runtime"
	"sync"
)

// ErrCanceled is returned by Run when Options.Cancel closed before the
// campaign completed. Every unit finished by then was folded and — with
// a manifest attached — journaled, so a canceled campaign resumes
// exactly where it stopped.
var ErrCanceled = errors.New("campaign: canceled")

// poolJob is one unit of work on a shared Pool: it receives the
// worker's private simulation arena and the worker's index (for
// telemetry shard claiming).
type poolJob func(ws *workerState, w int)

// Pool is the bounded worker pool every in-process campaign executes
// on: a daemon shares one across all its campaigns through Options.Pool,
// and a Run without one builds a private Pool for its own duration.
// Each submitting client
// owns a FIFO queue; workers take the next job round-robin across the
// clients that currently have queued work, so one huge campaign cannot
// starve a small one — fair scheduling at unit granularity, in the
// spirit of shared-state multi-scheduler designs. Jobs from one client
// still run in submission order (per-client FIFO), which is what the
// campaign determinism contract needs: results fold by unit index, not
// by completion order, so interleaving never changes output.
//
// Each worker goroutine holds one persistent workerState arena, taken
// from the process-wide arena pool, so a long-lived daemon keeps its
// warmed-up simulation buffers across campaigns and back-to-back private
// Runs reuse them too.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string][]poolJob
	ring   []string // clients with queued work, round-robin order
	rr     int
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts a shared pool of the given width (0 means GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, queues: map[string][]poolJob{}}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// submit queues one job on client's FIFO. It never blocks and never
// runs the job inline; a closed pool panics (callers must sequence
// Close after every Run targeting the pool has returned).
func (p *Pool) submit(client string, job poolJob) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("campaign: submit on a closed Pool")
	}
	if _, ok := p.queues[client]; !ok {
		p.ring = append(p.ring, client)
	}
	p.queues[client] = append(p.queues[client], job)
	p.mu.Unlock()
	p.cond.Signal()
}

// Close drains every queued job and stops the workers. It blocks until
// the last job finished.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// worker is one pool goroutine: pick the next client round-robin, pop
// the head of its queue, run it on the private arena.
func (p *Pool) worker(w int) {
	defer p.wg.Done()
	ws := getWorkerState()
	defer putWorkerState(ws)
	for {
		p.mu.Lock()
		for !p.closed && len(p.ring) == 0 {
			p.cond.Wait()
		}
		if len(p.ring) == 0 { // closed and drained
			p.mu.Unlock()
			return
		}
		if p.rr >= len(p.ring) {
			p.rr = 0
		}
		client := p.ring[p.rr]
		q := p.queues[client]
		job := q[0]
		q[0] = nil // release the closure for GC
		if q = q[1:]; len(q) == 0 {
			delete(p.queues, client)
			// Removing the client leaves rr pointing at its successor.
			p.ring = append(p.ring[:p.rr], p.ring[p.rr+1:]...)
		} else {
			p.queues[client] = q
			p.rr++
		}
		p.mu.Unlock()
		job(ws, w)
	}
}

// canceled reports whether the cancel channel (possibly nil) closed.
func canceled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// poolWidth is the width of a Run's private Pool: Options.Workers, else
// GOMAXPROCS, at most limit (the units that could ever run at once) and
// at least one.
func poolWidth(opt Options, limit int) int {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, limit))
}

// driver is the execution loop both campaign modes share. Units run as
// jobs on a Pool — Options.Pool, or a private one the Run closes on
// return. A job folds and journals its own result, and queues whatever
// work follows from it, under mu on the worker that ran it, so no
// coordinator goroutine sits between a finished unit and its fold. The
// calling goroutine only acknowledges journaled units as the manifest's
// durable watermark covers them (wait).
type driver struct {
	opt     Options
	pool    *Pool
	private bool // pool belongs to this Run: close stops it

	mu       sync.Mutex
	inflight int             // submitted jobs not yet finished
	unacked  []journaledUnit // journaled units no fsync covered yet, in journal order
	firstErr error
	wake     chan struct{} // capacity 1: a job finished
}

// journaledUnit is a completed unit waiting for the journal's durable
// watermark to reach its record's sequence number. point, rep and vals
// feed the adaptive fold; a fixed run folded the unit before journaling
// it and only counts it once durable.
type journaledUnit struct {
	seq        uint64
	point, rep int
	vals       []float64
}

// newDriver targets opt.Pool, or a private pool of the given width.
func newDriver(opt Options, width int) *driver {
	d := &driver{opt: opt, pool: opt.Pool, wake: make(chan struct{}, 1)}
	if d.pool == nil {
		d.pool, d.private = NewPool(width), true
	}
	return d
}

// close stops a private pool. Run defers it, after wait drained every
// job or before any was submitted.
func (d *driver) close() {
	if d.private {
		d.pool.Close()
	}
}

// fail records the campaign's first error. The caller holds mu.
func (d *driver) fail(err error) {
	if d.firstErr == nil {
		d.firstErr = err
	}
}

// submit queues one job on the pool. The caller holds mu; the job ends
// by taking mu and calling finish.
func (d *driver) submit(job poolJob) {
	d.inflight++
	d.pool.submit(d.opt.Client, job)
}

// finish counts one job out, releases mu (which the job holds) and wakes
// the waiting caller.
func (d *driver) finish() {
	d.inflight--
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// journal appends one finished unit's record (u.vals) under mu. acked
// reports whether the unit counts as done now; one a synced manifest
// has not made durable yet joins unacked instead.
func (d *driver) journal(u journaledUnit, unit int) (acked bool, err error) {
	if d.opt.Manifest == nil {
		return true, nil
	}
	u.seq, acked, err = d.opt.Manifest.write("unit", manifestUnit{Unit: unit, Makespans: u.vals})
	if err == nil && !acked {
		d.unacked = append(d.unacked, u)
	}
	return acked, err
}

// wait runs on the calling goroutine until no job is in flight and no
// unit is unacknowledged. Each turn, under mu, it turns a closed Cancel
// into ErrCanceled, passes every unit the durable watermark now covers
// to accept (a failed fsync fails the campaign and passes the rest to
// drop instead: they never count as done), and calls report with
// whether anything was accepted. It returns the campaign's error.
func (d *driver) wait(accept, drop func(journaledUnit), report func(acked bool)) error {
	for {
		d.mu.Lock()
		if canceled(d.opt.Cancel) {
			d.fail(ErrCanceled)
		}
		var durable <-chan struct{}
		n := 0
		if len(d.unacked) > 0 {
			w, advanced, err := d.opt.Manifest.watermark()
			for n < len(d.unacked) && d.unacked[n].seq <= w {
				accept(d.unacked[n])
				n++
			}
			d.unacked = d.unacked[:copy(d.unacked, d.unacked[n:])]
			if err != nil {
				d.fail(err)
				for _, u := range d.unacked {
					drop(u)
				}
				d.unacked = d.unacked[:0]
			}
			if len(d.unacked) > 0 {
				durable = advanced
			}
		}
		report(n > 0)
		idle, err := d.inflight == 0 && len(d.unacked) == 0, d.firstErr
		d.mu.Unlock()
		if idle {
			return err
		}
		select {
		case <-d.wake:
		case <-durable:
		}
	}
}
