package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
)

// tableKinds are the paper tables the paper-tables workload regenerates,
// in paper order. Tables IV and V are left out: they repeat the
// contrastive and DDPM training quick-matrix already covers.
var tableKinds = []string{exp.KindTable1, exp.KindFig2, exp.KindTable2, exp.KindTable3}

// runPaperTables times Table I, Fig. 2, Table II and Table III cold after
// each set-up, warm, and after a restart over each artifact directory, and
// compares every table byte for byte with a reference computed at
// GOMAXPROCS=1. Table II runs in a child process: it races at
// GOMAXPROCS>1 and can panic inside a worker goroutine, which must fail one
// operation, not the run.
func runPaperTables(ctx context.Context, r *run) error {
	p := benchPreset(r.seed)
	r.count("tables_per_pass", int64(len(tableKinds)))

	// pass regenerates every table on x. Only Table II may fail without
	// ending the run.
	pass := func(name string, x *exp.Experiment, artDir string) (tablePass, error) {
		out := tablePass{name: name, texts: map[string]string{}, errs: map[string]error{}, times: map[string]time.Duration{}}
		var err error
		out.total, err = r.tr.timed(name, 0, func(id int) error {
			for _, kind := range tableKinds {
				text, d, err := r.table(ctx, x, artDir, kind, id)
				if err != nil && kind != exp.KindTable2 {
					return fmt.Errorf("%s: %w", kind, err)
				}
				out.texts[kind], out.errs[kind], out.times[kind] = text, err, d
			}
			return nil
		})
		return out, err
	}

	var colds []tablePass
	x, dirs, err := r.setup(ctx, p, func(x *exp.Experiment, artDir string) (time.Duration, error) {
		out, err := pass("eval.cold_pass", x, artDir)
		colds = append(colds, out)
		return out.total, err
	})
	if err != nil {
		return err
	}
	ref, err := r.child(ctx, dirs[0], 1, tableKinds)
	if err != nil {
		return fmt.Errorf("GOMAXPROCS=1 reference: %w", err)
	}
	var t2 table2Failures
	for _, kind := range tableKinds {
		var ds []float64
		for _, c := range colds {
			ds = append(ds, c.times[kind].Seconds())
		}
		r.setExtra("eval."+kind+"_s", median(ds), "s")
	}
	for _, c := range colds {
		r.judge(c, ref, &t2)
	}

	warm, err := r.repeat(func() (time.Duration, error) {
		settle()
		out, err := pass("eval.warm_pass", x, dirs[len(dirs)-1])
		if err == nil {
			r.judge(out, ref, &t2)
		}
		return out.total, err
	})
	if err != nil {
		return fmt.Errorf("warm pass: %w", err)
	}
	r.setMedian("warm_s", warm)

	x, err = r.restarts(ctx, p, dirs, func(x *exp.Experiment, artDir string) error {
		out, err := pass("eval.restart_pass", x, artDir)
		if err == nil {
			r.judge(out, ref, &t2)
		}
		return err
	})
	if err != nil {
		return err
	}
	// Table II failures vary from run to run, so they are reported, not
	// counted among the exact work counts.
	r.setExtra("table2.crashed", float64(t2.crashed), "count")
	r.setExtra("table2.differs", float64(t2.differs), "count")

	if r.tracing {
		return r.layerPass(ctx, x.Env(), exp.Spec{Kind: exp.KindTable1})
	}
	return nil
}

// tablePass is one pass over the tables: each table's text, error and
// time, and the pass's wall time.
type tablePass struct {
	name  string
	texts map[string]string
	errs  map[string]error
	times map[string]time.Duration
	total time.Duration
}

// table2Failures counts the known Table II race's outcomes by kind.
type table2Failures struct{ crashed, differs int }

// judge records one operation per table of a pass and compares each table
// with the GOMAXPROCS=1 reference. Table II is the known race: a crash or a
// differing table is a failed operation whose time stays in the pass. It
// is not rerun: a rerun would crash again as often as the host is busy, so
// its cost would grow with the load, where a crash alone can cut the pass
// by at most one Table II.
func (r *run) judge(out tablePass, ref map[string]string, t2 *table2Failures) {
	for _, kind := range tableKinds {
		err := out.errs[kind]
		ok := err == nil && out.texts[kind] == ref[kind]
		r.op(out.name+"."+kind, ok)
		switch {
		case kind != exp.KindTable2:
			r.sameBytes(kind+" equals the GOMAXPROCS=1 reference", out.texts[kind], ref[kind])
		case err != nil:
			t2.crashed++
		case !ok:
			t2.differs++
		}
	}
}

// table regenerates one table: in process, or for Table II in a child
// process at the parent's GOMAXPROCS.
func (r *run) table(ctx context.Context, x *exp.Experiment, artDir, kind string, parent int) (string, time.Duration, error) {
	var text string
	d, err := r.tr.timed("eval."+kind, parent, func(int) error {
		if kind == exp.KindTable2 {
			out, err := r.child(ctx, artDir, 0, []string{kind})
			text = out[kind]
			return err
		}
		res, err := x.Run(ctx, exp.Spec{Kind: kind})
		if err == nil {
			text = res.Text
		}
		return err
	})
	return text, d, err
}

// child runs tables in a child process over the artifact directory (a warm
// start, no training) and returns each table's text. procs > 0 sets the
// child's GOMAXPROCS.
func (r *run) child(ctx context.Context, artDir string, procs int, kinds []string) (map[string]string, error) {
	cmd := exec.CommandContext(ctx, r.binary, "child",
		"-artifacts", artDir, "-seed", strconv.FormatInt(r.seed, 10), "-kinds", strings.Join(kinds, ","))
	cmd.Env = os.Environ()
	if procs > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(procs))
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return map[string]string{}, fmt.Errorf("child %v: %w: %s", kinds, err, lastLine(stderr.String()))
	}
	out := map[string]string{}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return map[string]string{}, fmt.Errorf("child %v output: %w", kinds, err)
	}
	return out, nil
}

// childMain is the child process: it warm-starts the benchmark preset from
// the artifact directory, runs the named tables and prints their texts as
// one JSON object.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	artDir := fs.String("artifacts", "", "artifact directory to warm-start from")
	seed := fs.Int64("seed", 1, "workload seed")
	kinds := fs.String("kinds", "", "comma-separated spec kinds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	x, err := exp.New(ctx, exp.WithPreset(benchPreset(*seed)), exp.WithArtifactDir(*artDir))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	out := map[string]string{}
	for _, kind := range strings.Split(*kinds, ",") {
		res, err := x.Run(ctx, exp.Spec{Kind: kind})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		out[kind] = res.Text
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	os.Stdout.Write(b)
	return 0
}

// lastLine returns the last non-empty line of s (a panic's first line is
// more useful, so prefer a "panic:" line when there is one).
func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "panic:") {
			return l
		}
	}
	return lines[len(lines)-1]
}
