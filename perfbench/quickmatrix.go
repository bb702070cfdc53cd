package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/serve"
)

// dispatchInject is the fault the dispatch pass injects: worker 0's first
// attempt is killed after 3 cells, so the retry and lane-resume path runs
// on every run.
const dispatchInject = "kill:0@3"

// runQuickMatrix times the committed quick_matrix grid (27 closed-loop
// cells) cold after each set-up, warm, through dispatch.Run, and after a
// restart over each artifact directory a cold pass filled.
func runQuickMatrix(ctx context.Context, r *run) error {
	spec, err := loadQuickMatrix(r)
	if err != nil {
		return err
	}
	ids, err := spec.CellIDs()
	if err != nil {
		return err
	}
	cells := int64(len(ids))
	frames := cells * int64(spec.Matrix.Duration/spec.Matrix.DT+0.5)
	p := benchPreset(eval.Quick().Seed)
	r.count("cells_per_pass", cells)
	r.count("frames_per_pass", frames)

	// pass runs the grid once on an Experiment and checks its CSV against
	// the first cold pass's.
	var ref string
	pass := func(name string, x *exp.Experiment) (time.Duration, *cellTimer, error) {
		var csv string
		var ct *cellTimer
		d, err := r.tr.timed(name, 0, func(id int) error {
			ct = newCellTimer(r, id)
			res, err := x.RunObserved(ctx, spec, ct)
			if err == nil {
				csv = res.Matrix.CSV()
			}
			return err
		})
		r.op(name, err == nil)
		if err != nil {
			return d, ct, err
		}
		if ref == "" {
			ref = csv
		}
		r.sameBytes(strings.TrimPrefix(name, "eval.")+" CSV equals the first cold CSV", csv, ref)
		return d, ct, nil
	}

	var warmups []float64
	x, dirs, err := r.setup(ctx, p, func(x *exp.Experiment, _ string) (time.Duration, error) {
		d, ct, err := pass("eval.cold_pass", x)
		if err == nil {
			warmups = append(warmups, ct.warmup().Seconds())
		}
		return d, err
	})
	if err != nil {
		return err
	}
	r.setExtra("eval.warm_defenses_s", median(warmups), "s")

	warm, err := r.repeat(func() (time.Duration, error) {
		settle()
		d, ct, err := pass("eval.warm_pass", x)
		if err == nil {
			ct.report("eval.cell_ms.")
		}
		return d, err
	})
	if err != nil {
		return fmt.Errorf("warm pass: %w", err)
	}
	r.setMedian("warm_s", warm)

	settle()
	if err := r.dispatchPass(ctx, x, spec, ref, cells); err != nil {
		return fmt.Errorf("dispatch pass: %w", err)
	}

	x, err = r.restarts(ctx, p, dirs, func(x *exp.Experiment, _ string) error {
		_, _, err := pass("eval.restart_pass", x)
		return err
	})
	if err != nil {
		return err
	}

	if r.tracing {
		return r.layerPass(ctx, x.Env(), spec)
	}
	return nil
}

// loadQuickMatrix reads the committed grid and takes its base seed from
// the workload seed.
func loadQuickMatrix(r *run) (exp.Spec, error) {
	b, err := os.ReadFile(filepath.Join(r.root, "specs", "quick_matrix.json"))
	if err != nil {
		return exp.Spec{}, err
	}
	s, err := exp.ParseSpec(b)
	if err != nil {
		return exp.Spec{}, err
	}
	s.Matrix.BaseSeed = 424243 + r.seed
	return s, nil
}

// dispatchPass runs the grid through dispatch.Run: two in-process pool
// workers, more shards than workers, lanes replicated through a store
// transport over a DirStore, and one injected kill.
func (r *run) dispatchPass(ctx context.Context, x *exp.Experiment, spec exp.Spec, cold string, cells int64) error {
	injs, err := dispatch.ParseInjections(dispatchInject)
	if err != nil {
		return err
	}
	id, close := r.tr.open("dispatch.run", 0)
	dt := &dispatchTimer{r: r, parent: id}
	workers := []dispatch.Worker{
		{Name: "pool-0", Transport: dt.wrap(&dispatch.PoolTransport{X: x})},
		{Name: "pool-1", Transport: dt.wrap(&dispatch.PoolTransport{X: x})},
	}
	if err := dispatch.ApplyInjections(workers, injs); err != nil {
		return err
	}
	store := &timedStore{inner: serve.NewDirStore(r.dir("store")), r: r, parent: id}
	for _, op := range []string{"puts", "gets", "lists", "deletes"} {
		r.count("dispatch.store_"+op, 0) // listed even when never called
	}
	rep, err := dispatch.Run(ctx, dispatch.Config{
		Spec:        spec,
		Workers:     workers,
		NumShards:   4,
		Dir:         r.dir("lanes"),
		Checkpoints: &dispatch.StoreTransport{Store: store},
		HedgeAfter:  1, // no hedging: attempt counts must repeat exactly
		Seed:        r.seed,
	})
	end := time.Now()
	total := close()
	r.op("dispatch.run", err == nil)
	if err != nil {
		return err
	}
	r.setExtra("dispatch_s", total.Seconds(), "s")
	r.setExtra("dispatch.tail_s", end.Sub(dt.lastEnd()).Seconds(), "s")
	r.setExtra("dispatch.attempt_s.p50", median(dt.durations()), "s")
	r.setExtra("dispatch.attempt_s.max", quantile(dt.durations(), 1), "s")
	r.setExtra("dispatch.store_put_ms", median(store.putMS()), "ms")
	r.sameBytes("dispatch CSV equals the first cold CSV", rep.CSV, cold)
	r.expect("dispatch retries equal injected faults", rep.Retries == len(injs),
		"retries %d, injected %d", rep.Retries, len(injs))
	computed := dt.cellsDone()
	r.expect("dispatch recomputes no finished cell", computed == cells,
		"%d cells computed across attempts for a %d-cell grid", computed, cells)
	r.count("dispatch.attempts", int64(len(dt.durations())))
	r.count("dispatch.retries", int64(rep.Retries))
	r.count("dispatch.resumed", int64(rep.Resumed))
	r.count("dispatch.fetched", int64(rep.Fetched))
	r.count("dispatch.hedges", int64(rep.Hedges))
	r.count("dispatch.cells_computed", computed)
	return nil
}

// cellTimer is an Observer that turns cell-start/cell-done events into
// eval.cell spans and per-defense cell times.
type cellTimer struct {
	r      *run
	parent int

	mu        sync.Mutex
	runStart  time.Time
	firstCell time.Time
	starts    map[int]time.Time
	byDefense map[string][]float64
	done      int64
}

func newCellTimer(r *run, parent int) *cellTimer {
	return &cellTimer{r: r, parent: parent, runStart: time.Now(), starts: map[int]time.Time{}, byDefense: map[string][]float64{}}
}

// Observe implements exp.Observer.
func (c *cellTimer) Observe(ev exp.Event) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case exp.EventCellStart:
		if c.firstCell.IsZero() {
			c.firstCell = now
		}
		c.starts[ev.Cell.Index] = now
	case exp.EventCellDone:
		c.done++
		if s, ok := c.starts[ev.Cell.Index]; ok {
			c.r.tr.record("eval.cell", c.parent, s, now)
			c.byDefense[ev.Cell.Defense] = append(c.byDefense[ev.Cell.Defense], ms(now.Sub(s)))
		}
	}
}

// warmup is the time from the run's start to its first cell: the lazy
// defense construction (DDPM training on a cold environment).
func (c *cellTimer) warmup() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstCell.Sub(c.runStart)
}

// report sets the per-defense cell p50s (last pass wins).
func (c *cellTimer) report(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for def, xs := range c.byDefense {
		c.r.setExtra(prefix+defenseKey(def), median(xs), "ms")
	}
}

// defenseKey is the metric suffix of a registered defense name: its first
// word, lower-cased ("Median Blurring" -> "median").
func defenseKey(name string) string {
	return strings.ToLower(strings.Fields(name)[0])
}

// dispatchTimer is a timing decorator on dispatch.Transport: every attempt
// becomes a dispatch.attempt span, and the cells it finishes are counted.
type dispatchTimer struct {
	r      *run
	parent int

	mu    sync.Mutex
	durs  []float64
	end   time.Time
	cells *cellTimer
}

type timedTransport struct {
	inner dispatch.Transport
	dt    *dispatchTimer
}

func (d *dispatchTimer) wrap(t dispatch.Transport) dispatch.Transport {
	if d.cells == nil {
		d.cells = newCellTimer(d.r, d.parent)
	}
	return &timedTransport{inner: t, dt: d}
}

// Run implements dispatch.Transport.
func (t *timedTransport) Run(ctx context.Context, spec exp.Spec, obs eval.Observer) error {
	d := t.dt
	start := time.Now()
	err := t.inner.Run(ctx, spec, exp.MultiObserver(obs, d.cells))
	end := time.Now()
	d.r.tr.record("dispatch.attempt", d.parent, start, end)
	d.mu.Lock()
	d.durs = append(d.durs, end.Sub(start).Seconds())
	if end.After(d.end) {
		d.end = end
	}
	d.mu.Unlock()
	return err
}

func (d *dispatchTimer) durations() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.durs...)
}

func (d *dispatchTimer) lastEnd() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.end
}

func (d *dispatchTimer) cellsDone() int64 {
	d.cells.mu.Lock()
	defer d.cells.mu.Unlock()
	return d.cells.done
}

// timedStore is a timing decorator on serve.ObjectStore: it counts and
// times every call the store transport makes.
type timedStore struct {
	inner  serve.ObjectStore
	r      *run
	parent int

	mu   sync.Mutex
	puts []float64
}

func (s *timedStore) Put(key string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(key, data)
	end := time.Now()
	s.r.tr.record("dispatch.store_put", s.parent, start, end)
	s.mu.Lock()
	s.puts = append(s.puts, ms(end.Sub(start)))
	s.mu.Unlock()
	s.r.count("dispatch.store_puts", 1)
	return err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	start := time.Now()
	b, err := s.inner.Get(key)
	s.r.tr.record("dispatch.store_get", s.parent, start, time.Now())
	s.r.count("dispatch.store_gets", 1)
	return b, err
}

func (s *timedStore) List(prefix string) ([]string, error) {
	start := time.Now()
	keys, err := s.inner.List(prefix)
	s.r.tr.record("dispatch.store_list", s.parent, start, time.Now())
	s.r.count("dispatch.store_lists", 1)
	return keys, err
}

func (s *timedStore) Delete(key string) error {
	start := time.Now()
	err := s.inner.Delete(key)
	s.r.tr.record("dispatch.store_delete", s.parent, start, time.Now())
	s.r.count("dispatch.store_deletes", 1)
	return err
}

func (s *timedStore) putMS() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.puts...)
}
