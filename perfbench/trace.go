package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval: a call the benchmark made into a layer, a
// cell reported by an Observer, or an attempt/put seen by a decorator. Its
// layer is the name up to the first dot.
type span struct {
	Name       string
	ID, Parent int // Parent 0 = root
	Start, End time.Duration
}

// tracer keeps spans in memory and writes them as Chrome trace-event JSON
// when the run ends. When off, timed still measures but records nothing.
type tracer struct {
	on   bool
	run  string // shared run id stamped on every span
	t0   time.Time
	path string

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, t0: time.Now()}
}

// record adds a finished span and returns its id (0 when tracing is off).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// open starts a span whose end is filled in by the returned function; the
// id lets children name it as their parent while it is still open.
func (t *tracer) open(name string, parent int) (id int, close func() time.Duration) {
	start := time.Now()
	if !t.on {
		return 0, func() time.Duration { return time.Since(start) }
	}
	id = t.record(name, parent, start, start)
	return id, func() time.Duration {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = end.Sub(t.t0)
		t.mu.Unlock()
		return end.Sub(start)
	}
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(name string, parent int, fn func(id int) error) (time.Duration, error) {
	id, close := t.open(name, parent)
	err := fn(id)
	return close(), err
}

// layerOf names a span's layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time in seconds: a span's duration minus
// the part of its interval that its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		covered := unionWithin(kids[s.ID], s.Start, s.End)
		out[layerOf(s.Name)] += (s.End - s.Start - covered).Seconds()
	}
	return out
}

// unionWithin is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func unionWithin(ss []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(ss))
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// traceEvent is one Chrome trace-event "complete" (ph X) record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON (viewable in Perfetto
// or chrome://tracing). Overlapping siblings go on separate thread rows.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	tid := map[int]int{0: 0}
	lastEnd := map[[2]int]time.Duration{} // (parent, slot) -> end of last span there
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		slot := 0
		for lastEnd[[2]int{s.Parent, slot}] > s.Start {
			slot++
		}
		lastEnd[[2]int{s.Parent, slot}] = s.End
		tid[s.ID] = tid[s.Parent]*8 + slot + 1
		events = append(events, traceEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tid[s.ID],
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": t.run},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanCost measures what recording one span costs, in nanoseconds, on a
// scratch tracer.
func spanCost() float64 {
	const n = 20000
	c := newTracer(true, "calibration")
	start := time.Now()
	for i := 0; i < n; i++ {
		_, close := c.open("calibration.span", 0)
		close()
	}
	return float64(time.Since(start)) / n
}

// finishTrace writes the trace file and reports the tracer's own cost,
// estimated from the span count. The traced run's cold_s goes in extra as
// trace.cold_s: subtracting the cold_s of an untraced run of the same
// workload and seed gives the measured overhead.
func (r *run) finishTrace() {
	r.tr.path = filepath.Join(r.root, ".bench_build", "traces", r.tr.run+".json")
	if err := r.tr.write(r.tr.path); err != nil {
		r.expect("trace file written", false, "%v", err)
	}
	n := len(r.tr.spans)
	r.setLayer("trace.spans", float64(n), "count")
	r.setLayer("trace.overhead_ms", spanCost()*float64(n)/1e6, "ms")
	r.setExtra("trace.cold_s", r.e2e["cold_s"].Value, "s")
}
