package main

import (
	"fmt"
	"runtime"

	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// workloadDef is one benchmark workload: how its inputs derive from the
// seed, how it runs, and the smaller sample the traced walk replays
// through every layer.
type workloadDef struct {
	name string
	// inputs is how many distinct campaign specs one run cycles through
	// (iteration i runs input i mod inputs); each timed run covers all
	// of them the same number of times.
	inputs int
	// specs returns the campaign specs of input k: one for in-process
	// workloads, the closed loop's campaigns for the daemon.
	specs func(seed uint64, k int, size sizing) []scenario.Spec
	// walkSpec is the fixed campaign the traced walk replays unit by
	// unit through each layer's public functions.
	walkSpec func(seed uint64, size sizing) scenario.Spec
	// run executes one iteration in the current process.
	run func(c *childCtx) (iterResult, error)
}

// sizing scales the workloads. Benchmark runs use fullSize; the smoke
// tests shrink everything so a whole workload runs in about a second.
type sizing struct {
	precision  float64 // mc-precision relative CI half-width target
	campaigns  int     // daemon-durable campaigns per iteration
	daemonReps int     // replicates per daemon campaign (6 points each)
	walkReps   int     // replicates of the walk's example-grid sample
}

var fullSize = sizing{
	precision:  0.005,
	campaigns:  100,
	daemonReps: 20,
	walkReps:   40,
}

// smallSize shrinks every workload for the smoke tests.
var smallSize = sizing{
	precision:  0.05,
	campaigns:  4,
	daemonReps: 2,
	walkReps:   2,
}

var workloads = []workloadDef{
	{
		name: "mc-precision",
		// The number of units to reach the precision varies from seed to
		// seed; six studies per run keep that out of the run's median.
		inputs: 6,
		specs: func(seed uint64, k int, z sizing) []scenario.Spec {
			sp := exampleGrid(mix(seed, 1, uint64(k)), 0)
			sp.Precision = &scenario.PrecisionSpec{RelHalfWidth: z.precision, Confidence: 0.95, Batch: 8, MaxReplicates: 20000}
			return []scenario.Spec{sp}
		},
		walkSpec: func(seed uint64, z sizing) scenario.Spec { return exampleGrid(mix(seed, 1, 0), z.walkReps) },
		run:      runInProcess,
	},
	{
		name:   "daemon-durable",
		inputs: 1,
		specs: func(seed uint64, k int, z sizing) []scenario.Spec {
			out := make([]scenario.Spec, z.campaigns)
			for i := range out {
				out[i] = daemonSpec(seed, k, i, z)
			}
			return out
		},
		walkSpec: func(seed uint64, z sizing) scenario.Spec { return daemonSpec(seed, 0, 0, z) },
		run:      runDaemon,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// exampleGrid is the `campaign -example` study: platform size × MTBF
// under a Weibull k=0.7 law, n=10 tasks, four policies. reps 0 leaves
// the replicate count to a precision block.
func exampleGrid(seed uint64, reps int) scenario.Spec {
	w := workload.Default()
	w.N = 10
	w.P = 100
	w.MTBFYears = 10
	if reps <= 0 {
		reps = 1
	}
	return scenario.Spec{
		Name:       "mtbf-x-platform",
		Workload:   w,
		Failure:    scenario.FailureSpec{Law: "weibull", Shape: 0.7},
		Policies:   []string{"norc", "ig-el", "stf-el", "ff-el"},
		Base:       "norc",
		Replicates: reps,
		Seed:       seed,
		Axes: []scenario.Axis{
			{Param: scenario.ParamP, Values: []float64{40, 80, 160}},
			{Param: scenario.ParamMTBF, Values: []float64{5, 20}},
		},
	}
}

// daemonSpec is campaign i of the daemon's input k: the example grid
// with a fresh seed.
func daemonSpec(seed uint64, k, i int, z sizing) scenario.Spec {
	sp := exampleGrid(mix(seed, 3, uint64(k), uint64(i)), z.daemonReps)
	sp.Name = fmt.Sprintf("daemon-%d", i)
	return sp
}

// mix derives a non-zero sub-seed from the benchmark seed and a path of
// indices (splitmix64 finalizer over each step). Inputs derive from the
// seed through this function alone, so they do not move when the
// program's own seed streams change.
func mix(seed uint64, path ...uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, p := range path {
		h += p + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	if h == 0 {
		h = 1
	}
	return h
}

// clients is the closed loop's client count and the walk fleet's worker
// count: one per CPU, so load never needs more than the machine has.
func clients() int { return runtime.NumCPU() }
