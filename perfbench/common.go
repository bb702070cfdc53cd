package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/eval"
	"repro/internal/exp"
)

// setup times setupReps cold constructions, each over its own empty
// artifact directory, and runs the workload's cold pass right after each
// one. It reports the medians as setup_s and cold_s and returns the last
// Experiment and every artifact directory, in order. Every set-up must
// leave byte-identical artifacts.
func (r *run) setup(ctx context.Context, p eval.Preset, cold func(x *exp.Experiment, artDir string) (time.Duration, error)) (*exp.Experiment, []string, error) {
	var x *exp.Experiment
	var dirs []string
	var setups, colds []time.Duration
	for i := 0; i < setupReps; i++ {
		x = nil // let the previous environment go before building the next
		settle()
		dir := r.dir(fmt.Sprintf("artifacts-%d", i))
		d, err := r.tr.timed("exp.setup", 0, func(id int) error {
			var err error
			x, err = newExperiment(ctx, r, p, dir, id)
			return err
		})
		r.op("setup", err == nil)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d)
		dirs = append(dirs, dir)
		settle()
		d, err = cold(x, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("cold pass: %w", err)
		}
		colds = append(colds, d)
	}
	for _, d := range dirs[1:] {
		same, err := sameDir(dirs[0], d)
		r.expect("cold set-ups store identical artifacts", same, "%s vs %s: %v", dirs[0], d, err)
	}
	r.setMedian("setup_s", setups)
	r.setMedian("cold_s", colds)
	r.setLayer("exp.new_s", median(secs(setups)), "s")
	return x, dirs, nil
}

// restarts times, for each artifact directory a cold pass filled, a fresh
// Experiment over it followed by the workload's pass — what a restarted
// process pays — and reports their median as restart_s. It returns the
// last Experiment.
func (r *run) restarts(ctx context.Context, p eval.Preset, dirs []string, pass func(x *exp.Experiment, artDir string) error) (*exp.Experiment, error) {
	var x *exp.Experiment
	var times []time.Duration
	for _, dir := range dirs {
		x = nil
		settle()
		d, err := r.tr.timed("exp.restart", 0, func(id int) error {
			var err error
			if x, err = newExperiment(ctx, r, p, dir, id); err != nil {
				return err
			}
			return pass(x, dir)
		})
		if err != nil {
			return nil, fmt.Errorf("restart pass: %w", err)
		}
		times = append(times, d)
	}
	r.setMedian("restart_s", times)
	return x, nil
}

// newExperiment builds an Experiment over an artifact directory inside an
// exp.new span.
func newExperiment(ctx context.Context, r *run, p eval.Preset, artDir string, parent int) (*exp.Experiment, error) {
	var x *exp.Experiment
	_, err := r.tr.timed("exp.new", parent, func(int) error {
		var err error
		x, err = exp.New(ctx, exp.WithPreset(p), exp.WithArtifactDir(artDir))
		return err
	})
	return x, err
}

// repeat runs fn at least minPasses times, and then until one more pass
// would overrun the run's measuring budget, and returns every pass's time.
func (r *run) repeat(fn func() (time.Duration, error)) ([]time.Duration, error) {
	budget := time.Duration(r.seconds * float64(time.Second))
	start := time.Now()
	var ds []time.Duration
	for {
		d, err := fn()
		if err != nil {
			return ds, err
		}
		ds = append(ds, d)
		if len(ds) >= minPasses && time.Since(start)+d > budget {
			return ds, nil
		}
	}
}

// settle collects garbage between timed phases, so that no phase pays for
// the previous phase's garbage and peak_rss_mb reflects one phase's
// working set, not leftovers. Freed memory stays with the process: handing
// it back to the OS would make the next phase's page faults, and so its
// time, depend on the host's memory state.
func settle() { runtime.GC() }

// sameBytes records a byte-identity check.
func (r *run) sameBytes(name, got, want string) {
	if got == want {
		r.expect(name, true, "")
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	r.expect(name, false, "first difference at byte %d (len %d vs %d)", i, len(got), len(want))
}

// sameDir reports whether two directories hold the same regular files with
// the same bytes.
func sameDir(a, b string) (bool, error) {
	ea, err := os.ReadDir(a)
	if err != nil {
		return false, err
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		return false, err
	}
	if len(ea) != len(eb) {
		return false, fmt.Errorf("%d vs %d entries", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Name() != eb[i].Name() {
			return false, fmt.Errorf("entry %q vs %q", ea[i].Name(), eb[i].Name())
		}
		if !ea[i].Type().IsRegular() {
			continue
		}
		x, err := os.ReadFile(filepath.Join(a, ea[i].Name()))
		if err != nil {
			return false, err
		}
		y, err := os.ReadFile(filepath.Join(b, eb[i].Name()))
		if err != nil {
			return false, err
		}
		if !bytes.Equal(x, y) {
			return false, fmt.Errorf("%s differs", ea[i].Name())
		}
	}
	return true, nil
}
