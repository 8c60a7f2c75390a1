// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, each timed iteration in a fresh child
// process with telemetry off, checks every result against a reference,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a traced run) as one JSON object on its last output line.
// See README.md for the workloads and metrics; run it through run.sh,
// which builds it and the campaignw worker first.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"cosched/internal/campaign"
	"cosched/internal/model"
)

// childTimeout bounds one child process; a run must end within 180 s.
const childTimeout = 150 * time.Second

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		wlName    = flag.String("workload", "", "workload name (mc-precision, daemon-durable)")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 10, "how long to measure")
		trace     = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		work      = flag.String("work", ".bench_build", "directory for references, traces and scratch files")
		campaignw = flag.String("campaignw", "", "path of the built cmd/campaignw worker")
		child     = flag.String("child", "", "internal: run one iteration in this process (run, traced or walk)")
		input     = flag.Int("input", 0, "internal: the input index of a child iteration")
		small     = flag.Bool("small", false, "tiny workload sizes (smoke tests)")
	)
	flag.Parse()
	wl, err := lookupWorkload(*wlName)
	if err != nil {
		return err
	}
	if *campaignw == "" {
		return errors.New("-campaignw is required")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	size := fullSize
	if *small {
		size = smallSize
	}
	if *child != "" {
		return runChild(wl, *child, *seed, *input, size, *work, *campaignw)
	}
	o := &orchestrator{
		wl: wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		size: size, small: *small, work: *work, campaignw: *campaignw,
	}
	var res runResult
	if *trace == 1 {
		res, err = o.traced()
	} else {
		res, err = o.timed()
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// runChild executes one iteration and prints its iterResult as the last
// line of standard output.
func runChild(wl workloadDef, mode string, seed uint64, input int, size sizing, work, campaignw string) error {
	tmp, err := os.MkdirTemp(filepath.Join(work, "tmp"), wl.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	c := &childCtx{wl: wl, seed: seed, input: input, size: size, tmp: tmp, campaignw: campaignw}
	run := wl.run
	switch mode {
	case "run":
	case "setup":
		c.setupOnly = true
	case "traced":
		c.rec = newRecorder(fmt.Sprintf("%s-%d-traced-%d", wl.name, seed, os.Getpid()))
	case "walk":
		c.rec = newRecorder(fmt.Sprintf("%s-%d-walk-%d", wl.name, seed, os.Getpid()))
		run = runWalk
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	res, err := run(c)
	if err != nil {
		return err
	}
	res.Mode = mode
	return json.NewEncoder(os.Stdout).Encode(res)
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the benchmark's last output line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type orchestrator struct {
	wl        workloadDef
	seed      uint64
	seconds   time.Duration
	size      sizing
	small     bool
	work      string
	campaignw string

	env   environment
	ref   [][]string // reference digests per input, per campaign
	tally tally
}

// setup records the environment and loads or computes the reference.
func (o *orchestrator) setup() error {
	for _, d := range []string{"tmp", "ref", "trace"} {
		if err := os.MkdirAll(filepath.Join(o.work, d), 0o755); err != nil {
			return err
		}
	}
	root, _ := os.Getwd()
	o.env = recordEnv(root, filepath.Join(o.work, "tmp"))
	envLine, _ := json.Marshal(o.env)
	fmt.Printf("env %s\n", envLine)
	ref, err := o.reference()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	o.ref = ref
	return nil
}

// reference returns the expected result digest of every campaign the
// run submits: campaign.Run of the same spec with one worker and no
// model cache, computed once per seed and build and kept in the work
// directory.
func (o *orchestrator) reference() ([][]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	buildID, err := fileDigest(exe)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.work, "ref", fmt.Sprintf("%s-%d-%t-%s.json", o.wl.name, o.seed, o.small, buildID[:16]))
	var ref [][]string
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &ref) == nil && len(ref) == o.wl.inputs {
		return ref, nil
	}
	type job struct {
		k, i int // input, campaign
		raw  []byte
	}
	var jobs []job
	ref = make([][]string, o.wl.inputs)
	for k := range ref {
		sps := o.wl.specs(o.seed, k, o.size)
		ref[k] = make([]string, len(sps))
		for i, sp := range sps {
			jobs = append(jobs, job{k, i, encodeSpec(sp)})
		}
	}
	// Each reference is single-worker; independent ones run side by side.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, clients())
	for _, jb := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			d, err := referenceDigest(jb.raw)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			ref[jb.k][jb.i] = d
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	b, _ := json.Marshal(ref)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	return ref, nil
}

func referenceDigest(raw []byte) (string, error) {
	sp, err := decodeSpec(raw)
	if err != nil {
		return "", err
	}
	res, err := campaign.Run(sp, campaign.Options{Workers: 1, NoModelCache: true})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := res.WriteJSONL(&buf); err != nil {
		return "", err
	}
	return digest(buf.Bytes()), nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// spawn runs one child iteration and checks its results against the
// reference. A child that fails to run is one failed operation.
func (o *orchestrator) spawn(mode string, input int) (iterResult, bool) {
	exe, _ := os.Executable()
	args := []string{
		"-child", mode, "-workload", o.wl.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-input", strconv.Itoa(input), "-work", o.work, "-campaignw", o.campaignw,
	}
	if o.small {
		args = append(args, "-small")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var res iterResult
	if err == nil {
		err = json.Unmarshal(lastLine(out), &res)
	}
	if err != nil {
		o.tally.fail("%s child (input %d): %v", mode, input, err)
		return res, false
	}
	o.tally.add(res.Tally)
	if mode != "walk" && mode != "setup" {
		checkIteration(&o.tally, res, o.ref[input], o.wl.name == "mc-precision", o.size.precision)
	}
	return res, true
}

// checkIteration checks one iteration's results: every campaign's digest
// against the reference and, for an adaptive workload, the precision
// reached against its target. Each check is one operation in t.
func checkIteration(t *tally, res iterResult, want []string, adaptive bool, target float64) {
	t.check(len(res.Digests) == len(want), "%s input %d: %d results, want %d", res.Mode, res.Input, len(res.Digests), len(want))
	for i, d := range res.Digests {
		// A failed campaign ("" digest) is already counted as failed.
		if i < len(want) && d != "" {
			t.check(d == want[i], "%s input %d campaign %d: results differ from the reference", res.Mode, res.Input, i)
		}
	}
	if adaptive {
		t.check(res.WorstRelCI > 0 && res.WorstRelCI <= target*(1+1e-9),
			"%s input %d: worst relative CI %.6g above the target %.6g", res.Mode, res.Input, res.WorstRelCI, target)
	}
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// timed runs whole rounds of the workload's inputs until the measuring
// time is spent and reports the end-to-end metrics.
func (o *orchestrator) timed() (runResult, error) {
	if err := o.setup(); err != nil {
		return runResult{}, err
	}
	var iters []iterResult
	var setups []float64
	var probing time.Duration // spent on set-up probes, outside the measuring time
	start := time.Now()
	for rounds := 0; rounds == 0 || moreRounds(time.Since(start)-probing, o.seconds, rounds); rounds++ {
		for k := 0; k < o.wl.inputs; k++ {
			r, ok := o.spawn("run", k)
			if !ok {
				continue
			}
			iters = append(iters, r)
			setups = append(setups, r.SetupS)
			fmt.Printf("iteration input=%d wall_s=%.4f setup_s=%.4f units=%d peak_rss_mb=%.1f cpu_s=%.3f latency_p50_s=%.4f latency_p90_s=%.4f\n",
				k, r.WallS, r.SetupS, r.Units, kbToMB(r.PeakRSSKB), r.CPUS, percentile(r.LatencyS, 0.5), percentile(r.LatencyS, 0.9))
			// Set-up is milliseconds against a run of seconds; set-up-only
			// iterations give its median more samples, spread over the
			// whole run rather than taken in one burst.
			ps := time.Now()
			for i := 0; i < setupProbes; i++ {
				if p, ok := o.spawn("setup", k); ok {
					setups = append(setups, p.SetupS)
					fmt.Printf("setup-probe input=%d setup_s=%.5f\n", k, p.SetupS)
				}
			}
			probing += time.Since(ps)
		}
		if len(iters) == 0 {
			break
		}
	}
	return o.endToEnd(iters, setups), nil
}

// setupProbes is how many set-up-only iterations follow each timed one.
const setupProbes = 3

// moreRounds reports whether another round of inputs fits the
// measuring time: it starts only if, at the mean round time so far, it
// would end no more than half a round past the deadline. Runs then
// measure close to their time, in whole rounds.
func moreRounds(elapsed, budget time.Duration, rounds int) bool {
	per := elapsed / time.Duration(rounds)
	return elapsed+per/2 < budget
}

func kbToMB(kb int64) float64 { return float64(kb) / 1024 }

// endToEnd reduces the iterations to the end-to-end metrics, each a
// median over iterations. The latency percentiles are taken within each
// iteration, over its campaigns, and then reduced to their median: one
// iteration slowed as a whole by the host then moves the metric no more
// than it moves wall_s, where pooling every campaign of the run would
// let its campaigns fill the tail.
func (o *orchestrator) endToEnd(iters []iterResult, setup []float64) runResult {
	var wall, ups, rss, cpu, p50, p90 []float64
	campaigns, perIter, minBeyond := 0, -1, -1
	for _, r := range iters {
		wall = append(wall, r.WallS)
		rss = append(rss, kbToMB(r.PeakRSSKB))
		if r.Units > 0 {
			ups = append(ups, float64(r.Units)/r.WallS)
			cpu = append(cpu, r.CPUS/float64(r.Units)*1000)
		}
		var lat []float64
		for _, l := range r.LatencyS {
			if l > 0 {
				lat = append(lat, l)
			}
		}
		if len(lat) == 0 {
			continue
		}
		campaigns += len(lat)
		p50, p90 = append(p50, percentile(lat, 0.5)), append(p90, percentile(lat, 0.9))
		if b := beyond(lat, 0.9); minBeyond < 0 || b < minBeyond {
			minBeyond = b
		}
		if perIter < 0 || len(lat) < perIter {
			perIter = len(lat)
		}
	}
	t := o.tally
	fmt.Printf("summary workload=%s seed=%d iterations=%d campaigns=%d min_campaigns_per_iteration=%d min_p90_samples_beyond=%d attempted=%d failed=%d failed_frac=%.6g\n",
		o.wl.name, o.seed, len(iters), campaigns, perIter, minBeyond, t.Attempted, t.Failed, t.failedFrac())
	for _, f := range t.Failures {
		fmt.Printf("failure %s\n", f)
	}
	m := map[string]metric{
		"wall_s":                 {median(wall), "s"},
		"units_per_s":            {median(ups), "1/s"},
		"setup_s":                {median(setup), "s"},
		"campaign_latency_p50_s": {median(p50), "s"},
		"campaign_latency_p90_s": {median(p90), "s"},
		"peak_rss_mb":            {median(rss), "MiB"},
		"cpu_s_per_kunit":        {median(cpu), "s"},
		"ok_frac":                {1 - t.failedFrac(), "frac"},
	}
	return o.result(m)
}

func (o *orchestrator) result(m map[string]metric) runResult {
	for k, v := range m {
		if v.Value != v.Value { // NaN: nothing measured; JSON cannot carry it
			o.tally.fail("metric %s has no samples", k)
			m[k] = metric{0, v.Unit}
		}
	}
	t := o.tally
	return runResult{Correct: t.Failed == 0 && t.Attempted > 0, Attempted: max(t.Attempted, 1), Failed: t.Failed, Metrics: m}
}

// traced runs the walk once, then alternates untraced and traced
// iterations of the real workload until the measuring time is spent. It
// reports the per-layer metrics and writes every span, with the
// per-layer counts and self times, to a trace file in the work dir.
func (o *orchestrator) traced() (runResult, error) {
	if err := o.setup(); err != nil {
		return runResult{}, err
	}
	walk, ok := o.spawn("walk", 0)
	var plain, tracedRuns []iterResult
	start := time.Now()
	for rounds := 0; rounds == 0 || moreRounds(time.Since(start), o.seconds, rounds); rounds++ {
		for k := 0; k < o.wl.inputs; k++ {
			p, ok1 := o.spawn("run", k)
			t, ok2 := o.spawn("traced", k)
			if ok1 && ok2 {
				plain, tracedRuns = append(plain, p), append(tracedRuns, t)
			}
		}
		if len(tracedRuns) == 0 {
			break
		}
	}
	layer := map[string]float64{}
	source := map[string]string{}
	if ok {
		for k, v := range walk.Layer {
			layer[k], source[k] = v, "walk"
		}
	}
	// The real traced run supersedes the walk wherever it measured the
	// layer under the workload's own load.
	keys := map[string][]float64{}
	for _, r := range tracedRuns {
		for k, v := range r.Layer {
			keys[k] = append(keys[k], v)
		}
	}
	for k, vs := range keys {
		layer[k], source[k] = median(vs), "traced-run"
	}
	var pw, tw []float64
	for i := range tracedRuns {
		pw, tw = append(pw, plain[i].WallS), append(tw, tracedRuns[i].WallS)
	}
	layer["trace.overhead_frac"] = median(tw)/median(pw) - 1
	source["trace.overhead_frac"] = "traced-run"

	m := map[string]metric{}
	for _, pl := range perLayer {
		v, ok := layer[pl.name]
		if !ok {
			o.tally.fail("per-layer metric %s was not measured", pl.name)
		}
		m[pl.name] = metric{v, pl.unit}
		fmt.Printf("layer %-28s %14.6g %-6s (%s)\n", pl.name, v, pl.unit, source[pl.name])
	}
	if err := o.writeTrace(walk, tracedRuns, layer, source); err != nil {
		return runResult{}, err
	}
	return o.result(m), nil
}

// perLayer lists the per-layer metrics in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"scenario.prepare_s", "s"},
	{"workload.generate_s", "s"},
	{"model.compile_s", "s"},
	{"model.delta_s", "s"},
	{"model.acquire_s", "s"},
	{"model.cache_hits", "count"},
	{"model.cache_misses", "count"},
	{"model.cache_delta_builds", "count"},
	{"model.cache_hit_ratio", "frac"},
	{"model.cache_evictions", "count"},
	{"model.cache_resident_mb", "MiB"},
	{"core.run_s", "s"},
	{"core.events", "count"},
	{"core.decisions", "count"},
	{"core.candidate_evals", "count"},
	{"core.evals_per_decision", "count"},
	{"campaign.unit_s", "s"},
	{"campaign.fold_s", "s"},
	{"campaign.units_wasted_frac", "frac"},
	{"campaign.worker_busy_frac", "frac"},
	{"campaign.journal_append_s", "s"},
	{"campaign.journal_appends", "count"},
	{"service.submit_s", "s"},
	{"service.results_wait_s", "s"},
	{"service.rejected", "count"},
	{"dist.spawn_s", "s"},
	{"dist.frames", "count"},
	{"dist.pipe_bytes_per_unit", "B"},
	{"dist.leases_granted", "count"},
	{"dist.reassignments", "count"},
	{"dist.heartbeats", "count"},
	{"dist.worker_peak_rss_mb", "MiB"},
	{"trace.overhead_frac", "frac"},
}

// writeTrace writes the spans kept by the traced processes, their
// per-name totals and self times, per-layer self times, and the
// per-layer metrics with where each came from.
func (o *orchestrator) writeTrace(walk iterResult, runs []iterResult, layer map[string]float64, source map[string]string) error {
	type procTrace struct {
		Mode       string               `json:"mode"`
		Spans      []span               `json:"spans"`
		ByName     map[string]layerTime `json:"by_name"`
		SelfByLayr map[string]float64   `json:"self_by_layer"`
	}
	doc := struct {
		Env           environment        `json:"env"`
		Workload      string             `json:"workload"`
		Seed          uint64             `json:"seed"`
		CacheBudgetMB float64            `json:"model_cache_budget_mb"`
		Layer         map[string]float64 `json:"layer"`
		Source        map[string]string  `json:"source"`
		Processes     []procTrace        `json:"processes"`
	}{Env: o.env, Workload: o.wl.name, Seed: o.seed, CacheBudgetMB: float64(model.DefaultCacheBytes) / (1 << 20), Layer: layer, Source: source}
	for i, r := range append([]iterResult{walk}, runs...) {
		if len(r.Spans) == 0 {
			continue
		}
		lt := layerTimes(r.Spans)
		self := selfByLayer(lt)
		doc.Processes = append(doc.Processes, procTrace{Mode: r.Mode, Spans: r.Spans, ByName: lt, SelfByLayr: self})
		if i <= 1 { // the walk and the first traced iteration
			for _, layer := range slices.Sorted(maps.Keys(self)) {
				fmt.Printf("self %-6s %-10s %.6f s\n", r.Mode, layer, self[layer])
			}
		}
	}
	path := filepath.Join(o.work, "trace", fmt.Sprintf("%s-seed%d-%d.json", o.wl.name, o.seed, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace %s\n", path)
	return nil
}
