package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"syscall"

	"cosched/internal/campaign"
	"cosched/internal/core"
	"cosched/internal/dist"
	"cosched/internal/failure"
	"cosched/internal/model"
	"cosched/internal/obs"
	"cosched/internal/rng"
	"cosched/internal/scenario"
	"cosched/internal/service"
)

// runWalk is the traced walk: one fixed sample of the workload's units,
// replayed sequentially through each layer's public functions with a
// span around every call. Sequential and deterministic, so its counts
// repeat exactly from run to run.
//
// Per grid point it times a cold model.Compile of the point's fault
// table and the RecompileDelta that derives its fault-free twin. Per unit
// it replays the unit layer by layer (workload.Generate, two cache
// Acquires on a walk-private cache, Simulator.Reset+Run per policy),
// then runs the real unit through campaign.UnitRunner.RunUnit, folds it
// with an Assembler and appends it to a synced manifest. Finally the
// same spec goes through the daemon over loopback (except on
// daemon-durable, which measures that layer under load) and through a
// worker fleet, and both results must match the assembled one byte for
// byte.
func runWalk(c *childCtx) (iterResult, error) {
	rec := c.rec
	raw := encodeSpec(c.wl.walkSpec(c.seed, c.size))
	res := iterResult{Layer: map[string]float64{}}
	root := rec.begin("bench.walk", -1)

	prep := rec.begin("scenario.prepare", root)
	sp, err := decodeSpec(raw)
	if err != nil {
		return res, err
	}
	points, err := sp.Expand()
	if err != nil {
		return res, err
	}
	policies, err := sp.PolicySpecs()
	if err != nil {
		return res, err
	}
	semantics, err := sp.CoreSemantics()
	if err != nil {
		return res, err
	}
	if err := sp.Validate(); err != nil {
		return res, err
	}
	rec.end(prep)

	runner, err := campaign.NewUnitRunner(sp)
	if err != nil {
		return res, err
	}
	defer runner.Close()
	asm, err := campaign.NewAssembler(sp)
	if err != nil {
		return res, err
	}
	man, err := campaign.OpenManifest(filepath.Join(c.tmp, "walk-manifest.jsonl"))
	if err != nil {
		return res, err
	}
	man.SetSync(true)
	defer man.Close()
	// Restore writes the journal header that AppendUnit requires.
	if _, err := man.Restore(sp, len(policies), func(int, []float64) {}, nil); err != nil {
		return res, err
	}

	rp := newReplayer(sp, semantics, policies, rec)
	appends := 0
	for u := 0; u < runner.TotalUnits(); u++ {
		pi, rep := u/sp.Replicates, u%sp.Replicates
		if err := rp.unit(points[pi], pi, rep, root); err != nil {
			return res, err
		}
		us := rec.begin("campaign.unit", root)
		vals, err := runner.RunUnit(u)
		rec.end(us)
		if err != nil {
			return res, err
		}
		fs := rec.begin("campaign.fold", root)
		folded := asm.Fold(u, vals)
		rec.end(fs)
		res.Tally.check(folded, "walk: unit %d did not fold", u)
		js := rec.begin("campaign.journal_append", root)
		err = man.AppendUnit(u, vals)
		rec.end(js)
		if err != nil {
			return res, err
		}
		appends++
	}
	assembled, err := asm.Result()
	if err != nil {
		return res, err
	}
	var want bytes.Buffer
	if err := assembled.WriteJSONL(&want); err != nil {
		return res, err
	}
	res.Units = assembled.Units()

	if c.wl.name != "daemon-durable" {
		if err := serviceProbe(c, raw, want.Bytes(), &res, root); err != nil {
			return res, err
		}
	}
	if err := distProbe(c, sp, want.Bytes(), &res, root); err != nil {
		res.Tally.fail("walk fleet probe: %v", err)
	}
	rec.end(root)

	lt := layerTimes(rec.snapshot())
	for _, name := range []string{
		"scenario.prepare", "workload.generate", "model.compile", "model.delta", "model.acquire",
		"core.run", "campaign.unit", "campaign.fold", "campaign.journal_append",
	} {
		res.Layer[name+"_s"] = lt[name].TotalS
	}
	res.Layer["campaign.journal_appends"] = float64(appends)
	res.Layer["core.events"] = float64(rp.counters.Events)
	res.Layer["core.decisions"] = float64(rp.counters.Decisions)
	res.Layer["core.candidate_evals"] = float64(rp.counters.CandidateEvals)
	if rp.counters.Decisions > 0 {
		res.Layer["core.evals_per_decision"] = float64(rp.counters.CandidateEvals) / float64(rp.counters.Decisions)
	}
	res.Spans = rec.snapshot()
	finishUsage(&res)
	return res, nil
}

// replayer re-executes a unit layer by layer. Its packs and fault
// streams come from the benchmark's own seeds, not the campaign's, so
// it does the same kind and amount of work as the unit without claiming
// to reproduce its numbers.
type replayer struct {
	sp        scenario.Spec
	semantics core.Semantics
	policies  []scenario.PolicySpec
	rec       *recorder
	cache     *model.Cache
	sim       *core.Simulator
	renewal   failure.Renewal
	faultRNG  *rng.Source
	counters  core.Counters
}

func newReplayer(sp scenario.Spec, sem core.Semantics, policies []scenario.PolicySpec, rec *recorder) *replayer {
	return &replayer{
		sp: sp, semantics: sem, policies: policies, rec: rec,
		cache:    model.NewCache(model.DefaultCacheBytes),
		sim:      core.NewSimulator(),
		faultRNG: rng.New(0),
	}
}

func (r *replayer) unit(pt scenario.RunPoint, pi, rep int, parent int) error {
	span := r.rec.begin("bench.replay_unit", parent)
	defer r.rec.end(span)

	g := r.rec.begin("workload.generate", span)
	tasks, err := pt.Spec.Generate(rng.New(mix(r.sp.Seed, 5, uint64(pi), uint64(rep))))
	r.rec.end(g)
	if err != nil {
		return err
	}
	ffSpec := pt.Spec
	ffSpec.MTBFYears, ffSpec.SilentMTBFYears = 0, 0
	res, resFF := pt.Spec.Resilience(), ffSpec.Resilience()
	var rc model.CostModel // the paper's Eq. (9) cost, as campaign units use

	if rep == 0 {
		// Once per grid point: a cold compile at the point's n and p, and
		// the delta recompile that derives the fault-free twin from it.
		cs := r.rec.begin("model.compile", parent)
		cm, err := model.Compile(tasks, res, rc, pt.Spec.P)
		r.rec.end(cs)
		if err != nil {
			return err
		}
		var twin model.Compiled
		ds := r.rec.begin("model.delta", parent)
		_, err = twin.RecompileDelta(cm, tasks, resFF, rc, pt.Spec.P)
		r.rec.end(ds)
		if err != nil {
			return err
		}
	}

	acquire := func(res model.Resilience) (*model.CacheEntry, error) {
		a := r.rec.begin("model.acquire", span)
		defer r.rec.end(a)
		e, err := r.cache.Acquire(tasks, res, rc, pt.Spec.P)
		if err == nil && e == nil {
			err = fmt.Errorf("walk: pack not cacheable")
		}
		return e, err
	}
	e, err := acquire(res)
	if err != nil {
		return err
	}
	defer e.Release()
	eFF, err := acquire(resFF)
	if err != nil {
		return err
	}
	defer eFF.Release()

	for _, pol := range r.policies {
		cm, in := e.Compiled(), core.Instance{P: pt.Spec.P, Res: res}
		var src failure.Source
		if pol.FaultFree {
			cm, in.Res = eFF.Compiled(), resFF
		} else if pt.Spec.Lambda() > 0 {
			law, err := failure.LawForRate(r.sp.Failure.Law, pt.Spec.Lambda(), r.sp.Failure.Shape)
			if err != nil {
				return err
			}
			r.faultRNG.Reseed(mix(r.sp.Seed, 6, uint64(pi), uint64(rep)))
			if err := r.renewal.Reset(pt.Spec.P, law, r.faultRNG); err != nil {
				return err
			}
			src = &r.renewal
		}
		in.Tasks, in.Compiled = cm.Tasks(), cm
		s := r.rec.begin("core.run", span)
		err := r.sim.Reset(in, pol.Policy, src, core.Options{Semantics: r.semantics})
		var out core.Result
		if err == nil {
			out, err = r.sim.Run()
		}
		r.rec.end(s)
		if err != nil {
			return err
		}
		c := out.Counters
		r.counters.Events += c.Events
		r.counters.Decisions += c.Decisions
		r.counters.CandidateEvals += c.CandidateEvals
	}
	return nil
}

// serviceProbe submits the walk spec to a fresh daemon over loopback and
// checks its results against the assembled units.
func serviceProbe(c *childCtx, raw, want []byte, res *iterResult, parent int) error {
	d, err := startDaemon(service.Config{SpoolDir: filepath.Join(c.tmp, "walk-spool"), Workers: clients()})
	if err != nil {
		return err
	}
	defer d.stop()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	id, code, err := submit(hc, d.base, "walk", raw, c.rec, parent)
	res.Tally.check(err == nil, "walk service probe: %v", err)
	var got []byte
	if err == nil {
		got, _, err = results(hc, d.base, id, c.rec, parent)
		res.Tally.check(err == nil, "walk service probe: %v", err)
	}
	if err == nil {
		res.Tally.check(bytes.Equal(got, want), "walk: daemon results differ from the assembled units")
	}
	lt := layerTimes(c.rec.snapshot())
	res.Layer["service.submit_s"] = lt["service.submit"].TotalS
	res.Layer["service.results_wait_s"] = lt["service.results_wait"].TotalS
	res.Layer["service.rejected"] = 0
	if code == http.StatusTooManyRequests {
		res.Layer["service.rejected"] = 1
	}
	return nil
}

// distProbe runs the walk spec with dist.Run over one cmd/campaignw
// process per CPU, with a synced manifest as the coordination log, and
// checks its results against the assembled units. The worker pipes are
// counted and the coordinator's telemetry is attached.
func distProbe(c *childCtx, sp scenario.Spec, want []byte, res *iterResult, parent int) error {
	man, err := campaign.OpenManifest(filepath.Join(c.tmp, "walk-dist-manifest.jsonl"))
	if err != nil {
		return err
	}
	man.SetSync(true)
	defer man.Close()
	counter := &countingSpawner{inner: &dist.ProcSpawner{Path: c.campaignw, Stderr: os.Stderr}, rec: c.rec, parent: parent}
	m := obs.NewCampaign()
	run := c.rec.begin("dist.run", parent)
	out, err := dist.Run(sp, dist.Options{Workers: clients(), Spawner: counter, Manifest: man, Metrics: m})
	c.rec.end(run)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := out.WriteJSONL(&got); err != nil {
		return err
	}
	res.Tally.check(bytes.Equal(got.Bytes(), want), "walk: fleet results differ from the assembled units")
	d := m.Snapshot().Dist
	res.Layer["dist.leases_granted"] = float64(d.LeasesGranted)
	res.Layer["dist.reassignments"] = float64(d.Reassignments)
	res.Layer["dist.heartbeats"] = float64(d.Heartbeats)
	res.Layer["dist.frames"] = float64(counter.frames.Load())
	res.Layer["dist.pipe_bytes_per_unit"] = float64(counter.bytes.Load()) / float64(out.Units())
	res.Layer["dist.spawn_s"] = layerTimes(c.rec.snapshot())["dist.spawn"].TotalS
	// The fleet's workers are this process's only children.
	var kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	res.Layer["dist.worker_peak_rss_mb"] = float64(kids.Maxrss) / 1024
	return nil
}
