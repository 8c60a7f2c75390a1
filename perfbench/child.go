package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/model"
	"cosched/internal/obs"
	"cosched/internal/scenario"
	"cosched/internal/service"
)

// childCtx is what one child process needs to run one iteration: the
// workload, which of its inputs, and where to put spools and manifests.
type childCtx struct {
	wl    workloadDef
	seed  uint64
	input int
	size  sizing
	rec   *recorder // nil in timed runs: no spans, no telemetry
	// setupOnly stops the iteration once set-up is measured: at the
	// first unit done (the first 2xx POST for the daemon).
	setupOnly bool
	tmp       string // private scratch directory inside the work dir
	campaignw string // the built cmd/campaignw worker binary
}

func (c *childCtx) traced() bool { return c.rec != nil }

// iterResult is what a child reports for one iteration, as the last line
// of its standard output.
type iterResult struct {
	Mode  string `json:"mode"`
	Input int    `json:"input"`
	// WallS runs from the first call into the system until the last
	// result is returned; SetupS until the first unit is reported done
	// (daemon: until the first 2xx POST).
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	Units  int     `json:"units"`
	// LatencyS holds submit→results time per campaign, in input order.
	LatencyS []float64 `json:"latency_s"`
	// Digests holds the SHA-256 of each campaign's JSONL results, in
	// input order ("" for a campaign that failed).
	Digests []string `json:"digests"`
	// WorstRelCI is the largest relative CI half-width of an adaptive
	// campaign (0 for fixed campaigns).
	WorstRelCI float64 `json:"worst_rel_ci,omitempty"`
	PeakRSSKB  int64   `json:"peak_rss_kb"` // of this process, the system's host
	CPUS       float64 `json:"cpu_s"`       // user+sys of this process
	Tally      tally   `json:"tally"`
	// Layer holds per-layer metrics (traced and walk modes only).
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

func encodeSpec(sp scenario.Spec) []byte {
	var buf bytes.Buffer
	if err := sp.Encode(&buf); err != nil {
		panic(fmt.Sprintf("encoding a generated spec: %v", err)) // generated specs always encode
	}
	return buf.Bytes()
}

func decodeSpec(raw []byte) (scenario.Spec, error) { return scenario.Decode(bytes.NewReader(raw)) }

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// firstDone records the first time a unit is reported done. With a
// cancel channel (set-up probes) it also cancels the campaign then.
type firstDone struct {
	once   sync.Once
	at     time.Time
	cancel chan struct{}
}

func (c *childCtx) firstDone() *firstDone {
	if c.setupOnly {
		return &firstDone{cancel: make(chan struct{})}
	}
	return &firstDone{}
}

func (f *firstDone) progress(done, total int) {
	f.once.Do(func() {
		f.at = time.Now()
		if f.cancel != nil {
			close(f.cancel)
		}
	})
}

// setupResult is what a set-up probe reports: its set-up time alone. A
// campaign canceled by the probe itself is not a failure.
func setupResult(fd *firstDone, t0 time.Time, err error) iterResult {
	res := iterResult{SetupS: fd.since(t0)}
	if err != nil && !errors.Is(err, campaign.ErrCanceled) {
		res.Tally.fail("set-up probe: %v", err)
	} else {
		res.Tally.ok()
	}
	finishUsage(&res)
	return res
}

func (f *firstDone) since(t0 time.Time) float64 {
	if f.at.IsZero() {
		return time.Since(t0).Seconds()
	}
	return f.at.Sub(t0).Seconds()
}

// cachePoller samples the process-wide compiled-model cache while a
// traced run executes, keeping the largest resident size seen.
type cachePoller struct {
	start   model.CacheStats
	maxRes  atomic.Int64
	stop    chan struct{}
	stopped sync.WaitGroup
}

func startCachePoller() *cachePoller {
	p := &cachePoller{start: campaign.ModelCacheStats(), stop: make(chan struct{})}
	p.stopped.Add(1)
	go func() {
		defer p.stopped.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			p.sample()
			select {
			case <-t.C:
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

func (p *cachePoller) sample() {
	if r := campaign.ModelCacheStats().ResidentBytes; r > p.maxRes.Load() {
		p.maxRes.Store(r)
	}
}

// finish stops the poller and writes the cache's counts over the run.
func (p *cachePoller) finish(layer map[string]float64) {
	close(p.stop)
	p.stopped.Wait()
	p.sample()
	d := campaign.ModelCacheStats().Delta(p.start)
	layer["model.cache_hits"] = float64(d.Hits)
	layer["model.cache_misses"] = float64(d.Misses)
	layer["model.cache_delta_builds"] = float64(d.DeltaBuilds)
	layer["model.cache_evictions"] = float64(d.Evictions)
	layer["model.cache_resident_mb"] = float64(p.maxRes.Load()) / (1 << 20)
	layer["model.cache_hit_ratio"] = 0
	if acq := d.Hits + d.Misses; acq > 0 {
		layer["model.cache_hit_ratio"] = float64(d.Hits) / float64(acq)
	}
}

// finishUsage fills the resource fields from getrusage of this
// process, which hosts the system.
func finishUsage(r *iterResult) {
	var u syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &u)
	r.PeakRSSKB = u.Maxrss
	r.CPUS = float64(u.Utime.Sec+u.Stime.Sec) + float64(u.Utime.Usec+u.Stime.Usec)/1e6
}

// runInProcess is mc-precision: one campaign.Run in this process, no
// manifest.
func runInProcess(c *childCtx) (iterResult, error) {
	raw := encodeSpec(c.wl.specs(c.seed, c.input, c.size)[0])
	res := iterResult{Input: c.input}
	fd := c.firstDone()
	var m *obs.Campaign
	var poll *cachePoller
	if c.traced() {
		m = obs.NewCampaign()
		poll = startCachePoller()
	}
	root := c.rec.begin("bench.campaign", -1)
	t0 := time.Now()
	prep := c.rec.begin("scenario.prepare", root)
	sp, err := decodeSpec(raw)
	if err != nil {
		return res, err
	}
	if c.traced() {
		// Run repeats these; the traced run calls them once more to time
		// the scenario layer on its own.
		if err := prepare(sp); err != nil {
			return res, err
		}
	}
	c.rec.end(prep)
	run := c.rec.begin("campaign.run", root)
	// Parallel is the per-point speculative mode of adaptive campaigns;
	// fixed campaigns shard every point already and ignore it.
	out, err := campaign.Run(sp, campaign.Options{Parallel: true, Metrics: m, Progress: fd.progress, Cancel: fd.cancel})
	c.rec.end(run)
	if c.setupOnly {
		return setupResult(fd, t0, err), nil
	}
	var buf bytes.Buffer
	if err == nil {
		err = out.WriteJSONL(&buf)
	}
	wall := time.Since(t0)
	c.rec.end(root)
	res.WallS, res.SetupS = wall.Seconds(), fd.since(t0)
	res.LatencyS = []float64{wall.Seconds()}
	if err != nil {
		res.Tally.fail("campaign: %v", err)
		res.Digests = []string{""}
	} else {
		res.Tally.ok()
		res.Digests = []string{digest(buf.Bytes())}
		res.Units = out.Units()
		if out.Adaptive() {
			res.WorstRelCI = worstRelCI(out)
		}
	}
	if c.traced() {
		res.Layer = map[string]float64{}
		poll.finish(res.Layer)
		if err == nil {
			campaignLayer(res.Layer, m.Snapshot(), res.Units, wall)
		}
		res.Spans = c.rec.snapshot()
	}
	finishUsage(&res)
	return res, nil
}

// prepare runs the scenario layer's checks on a decoded spec.
func prepare(sp scenario.Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	if _, err := sp.Expand(); err != nil {
		return err
	}
	_, err := sp.PolicySpecs()
	return err
}

func worstRelCI(r *campaign.Result) float64 {
	worst := 0.0
	for pi := range r.Points {
		for qi := range r.Policies {
			if h, ok := r.CellRelHalfWidth(pi, qi); ok && h > worst {
				worst = h
			}
		}
	}
	return worst
}

// campaignLayer derives the campaign layer's waste and busy ratios from
// the telemetry snapshot of a traced in-process run.
func campaignLayer(layer map[string]float64, s obs.Snapshot, folded int, wall time.Duration) {
	busy := 0.0
	for _, w := range s.Workers {
		busy += w.BusySeconds
	}
	wasteAndBusy(layer, float64(s.UnitsExecuted), float64(folded), busy, wall)
}

func wasteAndBusy(layer map[string]float64, executed, folded, busySeconds float64, wall time.Duration) {
	if executed > 0 {
		layer["campaign.units_wasted_frac"] = (executed - folded) / executed
	}
	layer["campaign.worker_busy_frac"] = busySeconds / (float64(runtime.GOMAXPROCS(0)) * wall.Seconds())
}

// daemon is an in-process service.Server behind a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string // URL prefix of the API
}

func startDaemon(cfg service.Config) (*daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop closes the listener, waits for the HTTP server to return, then
// stops the service.
func (d *daemon) stop() {
	d.hs.Shutdown(context.Background())
	<-d.served
	d.srv.Stop()
}

// runDaemon is daemon-durable: a closed loop of one client per CPU
// against an in-process service.Server over loopback HTTP. Each client
// submits its next campaign only after the previous one's results came
// back.
func runDaemon(c *childCtx) (iterResult, error) {
	specs := c.wl.specs(c.seed, c.input, c.size)
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		bodies[i] = encodeSpec(sp)
	}
	res := iterResult{Input: c.input, LatencyS: make([]float64, len(specs)), Digests: make([]string, len(specs))}
	var poll *cachePoller
	if c.traced() {
		poll = startCachePoller()
	}
	root := c.rec.begin("bench.closed_loop", -1)
	t0 := time.Now()
	d, err := startDaemon(service.Config{
		SpoolDir: filepath.Join(c.tmp, "spool"),
		Workers:  clients(),
		// Admission is set far above the offered load, so a 429 is a
		// real failure rather than the loop's own pacing.
		SubmitRate:  1e6,
		SubmitBurst: 1e6,
	})
	if err != nil {
		return res, err
	}
	defer d.stop()
	n := clients()
	if c.setupOnly {
		n = 1
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	defer hc.CloseIdleConnections()

	var mu sync.Mutex // guards res.Tally, ids, rejected
	ids := make([]string, len(specs))
	rejected := 0
	var setupOnce sync.Once
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			client := fmt.Sprintf("bench-%d", k)
			for i := k; i < len(specs); i += n {
				ts := time.Now()
				cs := c.rec.begin("service.campaign", root)
				id, code, err := submit(hc, d.base, client, bodies[i], c.rec, cs)
				if err == nil {
					setupOnce.Do(func() { res.SetupS = time.Since(t0).Seconds() })
				}
				mu.Lock()
				res.Tally.check(err == nil, "campaign %d: %v", i, err)
				if code == http.StatusTooManyRequests {
					rejected++
				}
				mu.Unlock()
				if err != nil || c.setupOnly {
					c.rec.end(cs)
					if c.setupOnly {
						return
					}
					continue
				}
				body, _, err := results(hc, d.base, id, c.rec, cs)
				c.rec.end(cs)
				mu.Lock()
				res.Tally.check(err == nil, "campaign %d: %v", i, err)
				if err == nil {
					ids[i] = id
					res.Digests[i] = digest(body)
					res.LatencyS[i] = time.Since(ts).Seconds()
				}
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(t0)
	c.rec.end(root)
	if c.setupOnly {
		finishUsage(&res)
		return res, nil
	}
	res.WallS = wall.Seconds()
	perCampaign := unitsOf(specs[0])
	for _, id := range ids {
		if id != "" {
			res.Units += perCampaign
		}
	}
	if c.traced() {
		res.Layer = map[string]float64{}
		poll.finish(res.Layer)
		scrapeDaemon(hc, d.base, ids, res.Layer, &res.Tally, wall)
		lt := layerTimes(c.rec.snapshot())
		res.Layer["service.submit_s"] = lt["service.submit"].TotalS
		res.Layer["service.results_wait_s"] = lt["service.results_wait"].TotalS
		res.Layer["service.rejected"] = float64(rejected)
		res.Spans = c.rec.snapshot()
	}
	finishUsage(&res)
	return res, nil
}

func unitsOf(sp scenario.Spec) int {
	pts, err := sp.Expand()
	if err != nil {
		return 0
	}
	return len(pts) * sp.Replicates
}

// submit POSTs one spec and returns the campaign ID. A non-2xx answer is
// an error carrying its status code.
func submit(hc *http.Client, base, client string, body []byte, rec *recorder, parent int) (string, int, error) {
	sp := rec.begin("service.submit", parent)
	defer rec.end(sp)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("X-Cosched-Client", client)
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return "", resp.StatusCode, fmt.Errorf("POST: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(msg, &st); err != nil || st.ID == "" {
		return "", resp.StatusCode, fmt.Errorf("POST: no campaign id in %q", msg)
	}
	return st.ID, resp.StatusCode, nil
}

// results GETs a campaign's final JSONL, blocking until it is done.
func results(hc *http.Client, base, id string, rec *recorder, parent int) ([]byte, int, error) {
	sp := rec.begin("service.results_wait", parent)
	defer rec.end(sp)
	resp, err := hc.Get(base + "/v1/campaigns/" + id + "/results")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("GET results: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.StatusCode, nil
}

// scrapeDaemon reads every campaign's Prometheus text and derives the
// campaign layer's ratios over the whole closed loop.
func scrapeDaemon(hc *http.Client, base string, ids []string, layer map[string]float64, t *tally, wall time.Duration) {
	var executed, folded, busy float64
	for _, id := range ids {
		if id == "" {
			continue
		}
		resp, err := hc.Get(base + "/v1/campaigns/" + id + "/metrics")
		if err != nil {
			t.fail("GET metrics %s: %v", id, err)
			continue
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.fail("GET metrics %s: %s %v", id, resp.Status, err)
			continue
		}
		t.ok()
		prom := parseProm(text)
		executed += prom["cosched_worker_units_total"]
		busy += prom["cosched_worker_busy_seconds_total"]
		folded += prom["cosched_campaign_units_done"]
	}
	wasteAndBusy(layer, executed, folded, busy, wall)
}

// parseProm sums Prometheus text samples by metric name, ignoring labels.
func parseProm(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range bytes.Split(text, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := bytes.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		var v float64
		if _, err := fmt.Sscan(string(line[sp+1:]), &v); err == nil {
			out[string(name)] += v
		}
	}
	return out
}
