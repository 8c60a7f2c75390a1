package campaign

import (
	"fmt"

	"cosched/internal/core"
	"cosched/internal/scenario"
	"cosched/internal/workload"
)

// UnitRunner executes single campaign units outside the Run scheduler —
// the execution half of the distributed worker process. It owns one
// worker arena, the campaign's model-sharing state (pack memo and
// compiled-model cache), and the pre-loaded arrival trace, so RunUnit
// computes exactly the numbers the in-process runner would: unit values
// are a pure function of (spec, unit index), which is the whole
// byte-identity argument of distributed execution. A UnitRunner is not
// safe for concurrent use; a process that wants parallelism opens one
// per goroutine — the unitModels state is shared per process through
// the global cache, which is concurrency-safe.
type UnitRunner struct {
	sp        scenario.Spec
	points    []scenario.RunPoint
	policies  []scenario.PolicySpec
	semantics core.Semantics
	um        *unitModels
	trace     []workload.TraceArrival
	ws        *workerState
}

// NewUnitRunner validates and expands sp and builds the shared per-point
// models. Adaptive specs (precision block) are refused: their unit set
// is decided by a stopping rule at run time, so they cannot be sharded
// by a static unit index.
func NewUnitRunner(sp scenario.Spec) (*UnitRunner, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.Precision != nil {
		return nil, fmt.Errorf("campaign: adaptive campaigns cannot run as static units")
	}
	points, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	policies, err := sp.PolicySpecs()
	if err != nil {
		return nil, err
	}
	semantics, err := sp.CoreSemantics()
	if err != nil {
		return nil, err
	}
	trace, err := loadArrivalTrace(sp)
	if err != nil {
		return nil, err
	}
	return &UnitRunner{
		sp:        sp,
		points:    points,
		policies:  policies,
		semantics: semantics,
		um:        newUnitModels(points, modelCacheFor(Options{}), false),
		trace:     trace,
		ws:        getWorkerState(),
	}, nil
}

// TotalUnits returns the campaign's unit count (points × replicates).
func (u *UnitRunner) TotalUnits() int { return len(u.points) * u.sp.Replicates }

// Policies returns the resolved policy count — the manifest's header
// parameter.
func (u *UnitRunner) Policies() int { return len(u.policies) }

// ValsPerUnit returns the width of one unit's flat value vector.
func (u *UnitRunner) ValsPerUnit() int { return len(u.policies) * metricsPerPolicy(u.sp) }

// RunUnit executes one unit and returns a fresh copy of its value
// vector (ValsPerUnit entries, policy-major).
func (u *UnitRunner) RunUnit(unit int) ([]float64, error) {
	if unit < 0 || unit >= u.TotalUnits() {
		return nil, fmt.Errorf("campaign: unit %d out of range [0, %d)", unit, u.TotalUnits())
	}
	pi, rep := unit/u.sp.Replicates, unit%u.sp.Replicates
	vals, err := u.ws.runUnit(u.sp, u.points[pi], u.policies, u.semantics, rep, u.um, u.trace)
	if err != nil {
		return nil, fmt.Errorf("campaign: point %d (x=%v) rep %d: %w", pi, u.points[pi].X, rep, err)
	}
	out := make([]float64, len(vals))
	copy(out, vals)
	return out, nil
}

// Close returns the worker arena to the shared pool. The UnitRunner is
// unusable afterwards.
func (u *UnitRunner) Close() {
	if u.ws != nil {
		putWorkerState(u.ws)
		u.ws = nil
	}
}

// Assembler folds unit value vectors into a campaign Result — the
// folding half of the distributed coordinator, and the same machinery
// the in-process fixed runner scatters through. Folding is positional
// (each unit owns fixed replicate slots) and idempotent (a duplicate
// fold is refused), which is what makes the assembled Result
// byte-identical to a single-process run no matter how many times
// workers die and units are re-executed. Not safe for concurrent use;
// callers serialize.
type Assembler struct {
	res    *Result
	nm     int
	folded []bool
	done   int
}

// NewAssembler validates and expands sp. Adaptive specs are refused for
// the same reason as in NewUnitRunner.
func NewAssembler(sp scenario.Spec) (*Assembler, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.Precision != nil {
		return nil, fmt.Errorf("campaign: adaptive campaigns cannot be assembled from unit vectors")
	}
	points, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	policies, err := sp.PolicySpecs()
	if err != nil {
		return nil, err
	}
	return newAssembler(sp, points, policies), nil
}

// newAssembler builds the empty result matrices over an already
// expanded spec (Run's fixed path comes through here).
func newAssembler(sp scenario.Spec, points []scenario.RunPoint, policies []scenario.PolicySpec) *Assembler {
	nm := metricsPerPolicy(sp)
	res := &Result{Spec: sp, Points: points, Policies: policies}
	res.Reps = make([]int, len(points))
	res.Makespans = make([][][]float64, len(points))
	if nm > 1 {
		res.online = make([][][]onlineUnit, len(points))
	}
	for pi := range points {
		res.Reps[pi] = sp.Replicates
		res.Makespans[pi] = make([][]float64, len(policies))
		if nm > 1 {
			res.online[pi] = make([][]onlineUnit, len(policies))
		}
		for qi := range policies {
			res.Makespans[pi][qi] = make([]float64, sp.Replicates)
			if nm > 1 {
				res.online[pi][qi] = make([]onlineUnit, sp.Replicates)
			}
		}
	}
	return &Assembler{res: res, nm: nm, folded: make([]bool, len(points)*sp.Replicates)}
}

// TotalUnits returns the campaign's unit count.
func (a *Assembler) TotalUnits() int { return len(a.folded) }

// Policies returns the resolved policy count.
func (a *Assembler) Policies() int { return len(a.res.Policies) }

// ValsPerUnit returns the expected unit value-vector width.
func (a *Assembler) ValsPerUnit() int { return len(a.res.Policies) * a.nm }

// Done returns how many distinct units have been folded.
func (a *Assembler) Done() int { return a.done }

// IsFolded reports whether unit has already been folded.
func (a *Assembler) IsFolded(unit int) bool {
	return unit >= 0 && unit < len(a.folded) && a.folded[unit]
}

// Fold scatters one unit's value vector into its result slots. It
// reports whether the fold happened: a duplicate unit, an out-of-range
// index, or a malformed vector is refused (exactly-once folding is the
// Assembler's contract, not the caller's burden).
func (a *Assembler) Fold(unit int, vals []float64) bool {
	if unit < 0 || unit >= len(a.folded) || a.folded[unit] || len(vals) != a.ValsPerUnit() {
		return false
	}
	pi, rep := unit/a.res.Spec.Replicates, unit%a.res.Spec.Replicates
	for qi := range a.res.Policies {
		a.res.Makespans[pi][qi][rep] = vals[qi*a.nm+MetricMakespan]
		if a.nm > 1 {
			copy(a.res.online[pi][qi][rep][:], vals[qi*a.nm+1:(qi+1)*a.nm])
		}
	}
	a.folded[unit] = true
	a.done++
	return true
}

// Result returns the assembled campaign once every unit has folded.
func (a *Assembler) Result() (*Result, error) {
	if a.done != len(a.folded) {
		return nil, fmt.Errorf("campaign: result incomplete: %d of %d units folded", a.done, len(a.folded))
	}
	return a.res, nil
}
