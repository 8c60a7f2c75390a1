package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least a fraction q of the samples at or below
// it. Nearest rank never interpolates, so a reported p90 is a latency
// some campaign actually saw.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// beyond returns how many samples lie strictly above the nearest-rank
// q-quantile. A percentile is only reported when at least ten samples
// lie beyond it, so the tail it summarizes is not a single outlier.
func beyond(xs []float64, q float64) int {
	p := percentile(xs, q)
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}

// quartileSpread returns (Q3 − Q1) / median of xs, with the quartiles of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method). It is
// the run-to-run spread the benchmark's bounds are judged against.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		m := float64(len(s)+1) * p // 1-based position
		j := int(math.Floor(m))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return (q(0.75) - q(0.25)) / median(s)
}

// tally counts attempted and failed operations. An operation is a
// campaign, an HTTP request or an output check; a failure is a non-2xx
// response (429 included), a failed campaign, a quarantined unit or a
// failed check. Failures keep a short description for the report.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// maxFailureNotes bounds the kept descriptions; the counts stay exact.
const maxFailureNotes = 20

// ok records one successful operation.
func (t *tally) ok() { t.Attempted++ }

// fail records one failed operation with its description.
func (t *tally) fail(format string, args ...any) {
	t.Attempted++
	t.Failed++
	if len(t.Failures) < maxFailureNotes {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

// check records an output check: ok when cond holds, else a failure.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

// add merges another tally into t.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, f := range o.Failures {
		if len(t.Failures) < maxFailureNotes {
			t.Failures = append(t.Failures, f)
		}
	}
}

// failedFrac returns failed ÷ attempted (0 when nothing was attempted).
func (t tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}
