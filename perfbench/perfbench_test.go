package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("percentile of three = %v, want the middle sample 2", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestBeyondCountsTheTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// The daemon reports p90 over 100 campaigns per iteration: 10 lie beyond.
	if got := beyond(xs, 0.9); got != 10 {
		t.Errorf("beyond(1..100, p90) = %d, want 10", got)
	}
	if got := beyond(xs[:9], 0.9); got != 0 {
		t.Errorf("beyond(1..9, p90) = %d, want 0 (p90 is the maximum)", got)
	}
	// Ties at the percentile are not beyond it.
	if got := beyond([]float64{1, 2, 2, 2}, 0.5); got != 0 {
		t.Errorf("beyond with ties = %d, want 0", got)
	}
}

func TestLatencyPercentilesAreMediansOverIterations(t *testing.T) {
	// Two iterations of 100 campaigns at 1..100 ms, and one the host slowed
	// as a whole. Pooled, its campaigns would be the whole tail (p90 = 1 s).
	lat := func(scale float64) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = float64(i+1) * scale
		}
		return xs
	}
	iters := []iterResult{
		{WallS: 1, Units: 1, LatencyS: lat(0.001)},
		{WallS: 10, Units: 1, LatencyS: lat(0.01)},
		{WallS: 1, Units: 1, LatencyS: lat(0.001)},
	}
	o := &orchestrator{wl: workloadDef{name: "daemon-durable"}}
	m := o.endToEnd(iters, []float64{1}).Metrics
	if got := m["campaign_latency_p50_s"].Value; got != 0.05 {
		t.Errorf("p50 = %v, want the median iteration's 0.05", got)
	}
	if got := m["campaign_latency_p90_s"].Value; got != 0.09 {
		t.Errorf("p90 = %v, want the median iteration's 0.09", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	in := []float64{2, 1}
	median(in)
	if in[0] != 2 {
		t.Error("median must not reorder its input")
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0].
	if got, want := quartileSpread([]float64{1, 2, 4, 8}), (7-1.25)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1,2,4,8) = %v, want %v", got, want)
	}
}

func TestTallyFailureAccounting(t *testing.T) {
	var a tally
	a.ok()
	a.check(true, "fine")
	a.check(false, "mismatch %d", 7)
	a.fail("http %d", 429)
	if a.Attempted != 4 || a.Failed != 2 {
		t.Fatalf("tally = %+v, want 4 attempted, 2 failed", a)
	}
	if got := a.failedFrac(); got != 0.5 {
		t.Errorf("failedFrac = %v, want 0.5", got)
	}
	if a.Failures[0] != "mismatch 7" || a.Failures[1] != "http 429" {
		t.Errorf("failure notes = %q", a.Failures)
	}
	var b tally
	for i := 0; i < 3*maxFailureNotes; i++ {
		b.fail("x")
	}
	a.add(b)
	if a.Attempted != 4+3*maxFailureNotes || a.Failed != 2+3*maxFailureNotes {
		t.Errorf("merged counts = %+v", a)
	}
	if len(a.Failures) != maxFailureNotes {
		t.Errorf("kept %d notes, want the cap %d", len(a.Failures), maxFailureNotes)
	}
	if (tally{}).failedFrac() != 0 {
		t.Error("an empty tally has no failures")
	}
}

func TestCheckIterationCountsEveryCheck(t *testing.T) {
	want := []string{"a", "b", "c"}
	var tl tally
	checkIteration(&tl, iterResult{Digests: []string{"a", "b", "c"}}, want, false, 0)
	if tl.Attempted != 4 || tl.Failed != 0 {
		t.Fatalf("all matching: %+v, want 4 attempted (count + 3 digests), 0 failed", tl)
	}
	tl = tally{}
	// One mismatch, one failed campaign (already counted by the child).
	checkIteration(&tl, iterResult{Digests: []string{"a", "x", ""}}, want, false, 0)
	if tl.Attempted != 3 || tl.Failed != 1 {
		t.Errorf("mismatch: %+v, want 3 attempted, 1 failed", tl)
	}
	tl = tally{}
	checkIteration(&tl, iterResult{Digests: []string{"a"}}, want, false, 0)
	if tl.Failed != 1 {
		t.Errorf("missing results: %+v, want the count check to fail", tl)
	}
	for _, c := range []struct {
		ci   float64
		fail int
	}{{0.004, 0}, {0.005, 0}, {0.0051, 1}, {0, 1}} {
		tl = tally{}
		checkIteration(&tl, iterResult{Digests: []string{"a"}, WorstRelCI: c.ci}, want[:1], true, 0.005)
		if tl.Failed != c.fail {
			t.Errorf("worst CI %v: %d failed, want %d", c.ci, tl.Failed, c.fail)
		}
	}
}

func TestResultRejectsMissingSamples(t *testing.T) {
	o := &orchestrator{}
	o.tally.ok()
	r := o.result(map[string]metric{"wall_s": {math.NaN(), "s"}, "setup_s": {1, "s"}})
	if r.Correct || r.Failed != 1 || r.Metrics["wall_s"].Value != 0 {
		t.Errorf("NaN metric: %+v, want a failed, incorrect run with the value zeroed", r)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "service.campaign", Start: 0, End: 100, Parent: -1},
		{Name: "service.submit", Start: 10, End: 30, Parent: 0},
		{Name: "service.results_wait", Start: 20, End: 60, Parent: 0},  // overlaps submit
		{Name: "service.results_wait", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	lt := layerTimes(spans)
	// Children cover [10,60] and [90,100] of the parent: 60 ns.
	if got := lt["service.campaign"].SelfS; math.Abs(got-40e-9) > 1e-15 {
		t.Errorf("parent self = %v s, want 40 ns", got)
	}
	if lt["service.results_wait"].Calls != 2 || math.Abs(lt["service.results_wait"].TotalS-70e-9) > 1e-15 {
		t.Errorf("results_wait = %+v", lt["service.results_wait"])
	}
	if got := selfByLayer(lt)["service"]; math.Abs(got-(40e-9+20e-9+70e-9)) > 1e-15 {
		t.Errorf("service self = %v", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1)
	r.end(id)
	if id != -1 || r.snapshot() != nil {
		t.Error("a nil recorder must be a no-op")
	}
}

func TestInputsDependOnSeedOnly(t *testing.T) {
	for _, w := range workloads {
		a, b := w.specs(7, 0, smallSize), w.specs(7, 0, smallSize)
		if !bytes.Equal(encodeSpec(a[0]), encodeSpec(b[0])) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		c := w.specs(8, 0, smallSize)
		if bytes.Equal(encodeSpec(a[0]), encodeSpec(c[0])) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", w.name)
		}
	}
}

// TestSmoke builds the benchmark and the worker, then runs every
// workload at tiny size, timed and traced, through the real command. It
// checks the result line against BENCHMARK.json, then corrupts a stored
// reference and expects the run to fail its output check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	bin := t.TempDir()
	build := func(dir, out string) {
		cmd := exec.Command("go", "build", "-o", out, ".")
		cmd.Dir = dir
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", dir, err, b)
		}
	}
	build(".", filepath.Join(bin, "perfbench"))
	build(filepath.Join("..", "cmd", "campaignw"), filepath.Join(bin, "campaignw"))
	bench := readBenchmarkJSON(t)
	work := t.TempDir()
	run := func(workload, trace string) (runResult, error) {
		cmd := exec.Command(filepath.Join(bin, "perfbench"), "-small", "-work", work,
			"-campaignw", filepath.Join(bin, "campaignw"),
			"--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var r runResult
		if jerr := json.Unmarshal(lastLine(out), &r); jerr != nil {
			t.Fatalf("%s trace %s: last line is not a result: %v\n%s", workload, trace, jerr, out)
		}
		return r, err
	}
	for _, w := range bench.Workloads {
		for trace, names := range map[string][]string{"0": bench.EndToEnd, "1": bench.PerLayer} {
			r, err := run(w.Name, trace)
			if err != nil || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: err %v, result %+v", w.Name, trace, err, r)
			}
			got := slices.Sorted(maps.Keys(r.Metrics))
			if !slices.Equal(got, slices.Sorted(slices.Values(names))) {
				t.Errorf("%s trace %s: metrics %v, want %v", w.Name, trace, got, names)
			}
			if trace == "0" {
				for k, m := range r.Metrics {
					if m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, k)
					}
				}
			}
		}
	}

	refs, err := filepath.Glob(filepath.Join(work, "ref", "daemon-durable-3-*.json"))
	if err != nil || len(refs) != 1 {
		t.Fatalf("stored daemon reference: %v %v", refs, err)
	}
	var ref [][]string
	b, err := os.ReadFile(refs[0])
	if err == nil {
		err = json.Unmarshal(b, &ref)
	}
	if err != nil {
		t.Fatal(err)
	}
	ref[0][1] = "0000" // one campaign's expected digest
	if b, err = json.Marshal(ref); err == nil {
		err = os.WriteFile(refs[0], b, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	r, err := run("daemon-durable", "0")
	if err == nil || r.Correct || r.Failed == 0 {
		t.Errorf("corrupted reference: err %v, result %+v; want a failed check and a non-zero exit", err, r)
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []string
	PerLayer  []string
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	out := benchmarkJSON{Workloads: raw.Workloads}
	for _, m := range raw.EndToEnd {
		out.EndToEnd = append(out.EndToEnd, m.Name)
	}
	for _, m := range raw.PerLayer {
		out.PerLayer = append(out.PerLayer, m.Name)
	}
	return out
}
