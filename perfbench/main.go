// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (quick-matrix, paper-tables or service) through the exported
// entry points of the program — exp.New, Experiment.Run, dispatch.Run and
// serve.New(...).Handler() over loopback HTTP — checks that the outputs are
// bit-identical wherever the program promises that, and prints one JSON
// result line. With -trace 1 it also records spans around every call it
// makes, runs a per-layer pass over the lower layers, writes a Chrome
// trace-event file and reports per-layer metrics instead of end-to-end ones.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload quick-matrix -seed 1 -seconds 12 -trace 0
//
// See README.md in this directory for the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/eval"
	"repro/internal/tensor"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, r *run) error{
	"quick-matrix": runQuickMatrix,
	"paper-tables": runPaperTables,
	"service":      runService,
}

// setupReps is how many cold constructions a run times for setup_s; each
// is followed by a cold pass, and later by a restart over its artifacts.
const setupReps = 3

// minPasses is the fewest warm passes a run times: a quick-matrix warm pass
// can differ from the next by a fifth inside one process.
const minPasses = 3

// benchPreset is the quick preset scaled down so that every workload's run
// (three set-ups each with a cold pass, three warm passes, three restarts,
// and for paper-tables a GOMAXPROCS=1 reference) fits the benchmark's time
// budget. Its datasets are no smaller, because the Table II race must stay
// visible: at 16/8 sign scenes a probe saw no Table II run fail. It keeps
// the name "quick": the grid, dispatch and serve layers resolve spec
// presets by name, and only quick and paper exist. Its different sizes
// give it its own artifact keys, so it never collides with real quick
// artifacts.
func benchPreset(seed int64) eval.Preset {
	p := eval.Quick()
	p.SignTrain, p.SignTest = 24, 12
	p.DriveTrain, p.DrivePerBucket = 32, 3
	p.DetEpochs, p.RegEpochs = 6, 6
	p.AdvEpochs, p.ContrastiveEpochs = 1, 1
	p.DiffusionSteps = 8
	p.APGDSteps, p.SimBASteps, p.RP2Iters = 6, 50, 8
	p.Seed = seed
	return p
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check and its outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// run carries one benchmark invocation's settings and everything it
// measures. Workloads fill e2e (end-to-end metrics), layer (per-layer
// metrics), counts (exact work counts) and extra (workload-specific
// timings, reported but not gated).
type run struct {
	workload string
	seed     int64
	seconds  float64
	tracing  bool
	root     string // checkout root
	work     string // scratch directory inside the checkout, removed at exit
	binary   string // this executable, for child processes

	tr *tracer

	e2e    map[string]metric
	layer  map[string]metric
	extra  map[string]metric
	passes map[string][]float64 // every timed repetition behind a median, in seconds
	checks []check

	mu     sync.Mutex // guards counts, which decorators bump from worker goroutines
	counts map[string]int64

	ops               map[string]opCount
	attempted, failed int
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }
func (r *run) setExtra(name string, v float64, unit string) { r.extra[name] = metric{v, unit} }

// setMedian reports the median of repeated timings as an end-to-end
// metric in seconds and keeps every repetition for the report.
func (r *run) setMedian(name string, ds []time.Duration) {
	r.passes[name] = secs(ds)
	r.setE2E(name, median(secs(ds)), "s")
}

// count adds to an exact work count.
func (r *run) count(name string, n int64) {
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// op records one attempted operation of a phase and whether it failed.
func (r *run) op(phase string, ok bool) {
	c := r.ops[phase]
	c.Attempted++
	r.attempted++
	if !ok {
		c.Failed++
		r.failed++
	}
	r.ops[phase] = c
}

// opCount is one phase's operations.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// expect records an output check. A check evaluated many times keeps one
// entry: passed, or its first failure.
func (r *run) expect(name string, ok bool, detail string, args ...any) {
	for i, c := range r.checks {
		if c.Name == name {
			if !ok && c.OK {
				r.checks[i] = check{Name: name, Detail: fmt.Sprintf(detail, args...)}
			}
			return
		}
	}
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(detail, args...)
	}
	r.checks = append(r.checks, c)
}

// dir returns a fresh directory under the run's scratch directory.
func (r *run) dir(name string) string {
	d := filepath.Join(r.work, name)
	if err := os.MkdirAll(d, 0o755); err != nil {
		panic(err)
	}
	return d
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload: quick-matrix | paper-tables | service")
	seed := flag.Int64("seed", 1, "workload seed (inputs derive from it)")
	seconds := flag.Float64("seconds", 12, "measuring budget of the repeated warm phase, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: spans, per-layer pass and per-layer metrics")
	root := flag.String("root", ".", "checkout root (scratch files go under .bench_build)")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err := checkInputs(*root); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, tracing: *trace == 1,
		root: *root, work: work, binary: bin,
		tr:  newTracer(*trace == 1, fmt.Sprintf("%s-seed%d", *workload, *seed)),
		e2e: map[string]metric{}, layer: map[string]metric{}, extra: map[string]metric{},
		passes: map[string][]float64{}, counts: map[string]int64{}, ops: map[string]opCount{},
	}
	code := execute(r, fn)
	os.RemoveAll(work)
	os.Exit(code)
}

// checkInputs verifies the committed inputs the workloads read are present,
// so a run outside a full checkout fails before doing any work.
func checkInputs(root string) error {
	_, err := os.Stat(filepath.Join(root, "specs", "quick_matrix.json"))
	return err
}

// execute runs the workload between two host-drift probes and prints the
// report and the result line.
func execute(r *run, fn func(context.Context, *run) error) int {
	ctx := context.Background()
	refStart := hostRef()
	stealStart, cpuStart := cpuSteal()
	heapPeak := startHeapSampler()
	err := fn(ctx, r)
	stealEnd, cpuEnd := cpuSteal()
	refEnd := hostRef()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	r.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	r.setLayer("host.ref_ms", (refStart+refEnd)/2, "ms")
	r.setLayer("go.gc_cpu_fraction", gcCPUFraction(), "fraction")
	r.setLayer("go.heap_peak_mb", heapPeak(), "MB")
	for _, name := range layerCounts {
		r.setLayer(name, float64(r.counts[name]), "count")
	}
	if r.tracing {
		r.finishTrace()
	}

	correct := true
	for _, c := range r.checks {
		correct = correct && c.OK
	}
	report := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "trace": r.tracing,
		"machine":     machine(),
		"host_ref_ms": map[string]float64{"start": refStart, "end": refEnd},
		// The share of the machine's CPU time the hypervisor gave to other
		// guests while the workload ran: the other host-drift indicator.
		"host_steal_fraction": ratio(stealEnd-stealStart, cpuEnd-cpuStart),
		"counts":              r.counts,
		"checks":              r.checks,
		"ops":                 r.ops,
		"extra":               r.extra,
		"passes_s":            r.passes,
	}
	if r.tracing {
		report["self_s"] = r.tr.selfTimes()
		report["trace_file"] = r.tr.path
	}
	printJSON(report)

	metrics := r.e2e
	if r.tracing {
		metrics = r.layer
	}
	printJSON(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	return 0
}

// layerCounts are the exact counts every traced run reports as per-layer
// metrics; a workload that never enters a layer reports its counts as 0.
var layerCounts = []string{
	"dispatch.attempts", "dispatch.retries", "dispatch.resumed", "dispatch.fetched",
	"dispatch.store_puts", "serve.computes", "serve.hits_joins", "serve.status_5xx",
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// machine is the metadata every report carries: the SGEMM kernel rung,
// core counts and the Go version.
func machine() map[string]any {
	return map[string]any{
		"kernel":     tensor.KMajorKernel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// hostRef times a fixed stdlib-only integer loop, in milliseconds. It is
// reported beside the metrics so that host drift can be told apart from a
// regression; it never normalizes them.
func hostRef() float64 {
	const rounds = 5
	times := make([]float64, rounds)
	for i := range times {
		t := time.Now()
		h := uint64(14695981039346656037)
		for j := 0; j < 20_000_000; j++ {
			h ^= uint64(j)
			h *= 1099511628211
		}
		if h == 42 { // keeps the loop from being optimized away
			fmt.Fprint(os.Stderr, "")
		}
		times[i] = ms(time.Since(t))
	}
	return median(times)
}

// cpuSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it does not exist).
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPUFraction is the share of this process's CPU time spent in the GC.
func gcCPUFraction() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[1].Value.Float64() == 0 {
		return 0
	}
	return s[0].Value.Float64() / s[1].Value.Float64()
}

// startHeapSampler samples the live heap every 20 ms until the returned
// function is called, which stops it and returns the peak in MB.
func startHeapSampler() func() float64 {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var max uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-done:
				peak <- float64(max) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
