package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Start and End are nanoseconds since the
// recorder's origin; Parent is the index of the enclosing span, -1 for a
// root. Spans of one traced process share Run.
type span struct {
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder keeps spans in memory; they are written out once, when the
// benchmark ends. A nil *recorder records nothing, which is how timed
// runs stay free of tracing.
type recorder struct {
	run    string
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder(run string) *recorder { return &recorder{run: run, origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Run: r.run, Start: now, End: now, Parent: parent})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records an already timed span (used where the start is observed
// on one goroutine and the end on another).
func (r *recorder) add(name string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Run: r.run, Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds(), Parent: parent})
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTimes sums, per span name, the total and the self time of spans.
// A span's self time is its duration minus the part of its interval that
// its children cover (overlapping children, as in concurrent clients,
// are counted once). Parents index into the same slice, so the spans of
// one recorder must be passed together.
type layerTime struct {
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func layerTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		d := s.End - s.Start
		self := d - covered(s, children[i])
		lt := out[s.Name]
		lt.Calls++
		lt.TotalS += float64(d) / 1e9
		lt.SelfS += float64(self) / 1e9
		out[s.Name] = lt
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of the children's intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// selfByLayer folds per-name self times into per-layer self times: the
// layer is the span name up to its first dot ("model.compile" → model).
func selfByLayer(lt map[string]layerTime) map[string]float64 {
	out := make(map[string]float64)
	for name, t := range lt {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += t.SelfS
	}
	return out
}
