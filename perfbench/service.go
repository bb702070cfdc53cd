package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// serviceSpecs is how many distinct grid specs the service workload sends;
// each is sent once as written and once as a syntactic variant.
const serviceSpecs = 16

// serviceClients is the number of closed-loop clients.
const serviceClients = 2

// restartReps is how many daemon restarts the service workload times.
const restartReps = 25

// tracedHitRequests bounds how many hit-phase requests get their own span.
const tracedHitRequests = 5000

var (
	serviceScenarios = []string{"highway-cruise", "gentle-brake", "hard-brake", "stop-and-go",
		"cut-in", "night-brake", "fog-brake", "rain-cruise"}
	serviceAttackSets = [][]string{{"None"}, {"FGSM"}, {"CAP-Attack"},
		{"None", "FGSM"}, {"None", "CAP-Attack"}, {"FGSM", "CAP-Attack"}}
	serviceDefenseSets = [][]string{{"None"}, {"Median Blurring"}, {"Bit Depth"}, {"Randomization"},
		{"None", "Median Blurring"}, {"Bit Depth", "Randomization"}}
)

// request is one spec as sent on the wire.
type request struct {
	key  string // canonical spec hash
	body []byte
	orig bool // the first sending of its key in the mixed phase
}

// makeServiceRequests builds the mixed phase's request sequence. The shape
// of every spec (scenario count, attack and defense sets) comes from a
// fixed list, so the amount of work is the same for every seed; the seed
// picks the scenarios, the base seeds and the order. Every spec is sent
// twice: as written, and later as a variant with reordered keys and
// whitespace or with the defaults spelled out.
func makeServiceRequests(seed int64) ([]request, error) {
	rng := xrand.New(seed)
	var origs, repeats []request
	for i := 0; i < serviceSpecs; i++ {
		perm := rng.Perm(len(serviceScenarios))
		scen := []string{serviceScenarios[perm[0]]}
		if i%2 == 1 {
			scen = append(scen, serviceScenarios[perm[1]])
		}
		m := exp.MatrixSpec{
			Scenarios: scen,
			Attacks:   serviceAttackSets[i%len(serviceAttackSets)],
			Defenses:  serviceDefenseSets[(i/2+i)%len(serviceDefenseSets)],
			Duration:  3, DT: 0.1,
			BaseSeed: seed*1000 + int64(i),
		}
		plain, err := json.Marshal(exp.Spec{Kind: exp.KindMatrix, Matrix: &m})
		if err != nil {
			return nil, err
		}
		var variant []byte
		if i%2 == 0 {
			variant = []byte(fmt.Sprintf("{\n  \"matrix\": {\"base_seed\": %d, \"dt\": 0.1, \"duration\": %.1f,\n"+
				"    \"defenses\": %s, \"attacks\": %s, \"scenarios\": %s},\n  \"kind\": \"matrix\"\n}\n",
				m.BaseSeed, m.Duration, mustJSON(m.Defenses), mustJSON(m.Attacks), mustJSON(m.Scenarios)))
		} else {
			variant = []byte(fmt.Sprintf(`{"version":1,"preset":"quick","kind":"matrix","matrix":%s}`, mustJSON(m)))
		}
		key, err := specKey(plain)
		if err != nil {
			return nil, err
		}
		vkey, err := specKey(variant)
		if err != nil {
			return nil, err
		}
		if vkey != key {
			return nil, fmt.Errorf("variant of spec %d hashes to %s, want %s", i, vkey, key)
		}
		origs = append(origs, request{key: key, body: plain, orig: true})
		repeats = append(repeats, request{key: key, body: variant})
	}
	// Interleave: originals in a seeded order; each repeat lands at a
	// seeded position after its original.
	order := rng.Perm(serviceSpecs)
	var seq []request
	pending := []request{}
	for _, i := range order {
		seq = append(seq, origs[i])
		pending = append(pending, repeats[i])
		if rng.Bool(0.5) && len(pending) > 0 {
			j := rng.Intn(len(pending))
			seq = append(seq, pending[j])
			pending = append(pending[:j], pending[j+1:]...)
		}
	}
	return append(seq, pending...), nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func specKey(body []byte) (string, error) {
	s, err := exp.ParseSpec(body)
	if err != nil {
		return "", err
	}
	return exp.SpecHash(s)
}

// daemon is one in-process serve.Server listening on loopback.
type daemon struct {
	srv    *serve.Server
	url    string
	http   *http.Server
	cancel context.CancelFunc
	done   chan struct{}
}

// startDaemon builds a server whose runners are Experiments of the
// benchmark preset over artDir, configured as `advrepro serve` configures
// it: with cacheDir empty, the default in-memory result cache; otherwise a
// DiskCache there alone, as with -cachedir.
func startDaemon(p eval.Preset, artDir, cacheDir string) (*daemon, error) {
	cfg := serve.Config{
		NewRunner: func(ctx context.Context, preset string, logf func(string, ...any)) (serve.Runner, error) {
			return exp.New(ctx, exp.WithPreset(p), exp.WithLogger(logf), exp.WithArtifactDir(artDir))
		},
	}
	if cacheDir != "" {
		disk, err := serve.NewDiskCache(cacheDir, nil)
		if err != nil {
			return nil, err
		}
		cfg.Cache = disk
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := serve.New(ctx, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	d := &daemon{srv: srv, url: "http://" + ln.Addr().String(), http: &http.Server{Handler: srv.Handler()},
		cancel: cancel, done: make(chan struct{})}
	go func() {
		d.http.Serve(ln)
		close(d.done)
	}()
	return d, nil
}

// stop shuts the daemon down and waits for its listener to exit.
func (d *daemon) stop() {
	d.http.Close()
	d.cancel()
	<-d.done
}

// response is one finished request as a client saw it.
type response struct {
	req     request
	status  int
	hit     bool   // served from the result cache
	result  []byte // the terminal result line
	latency time.Duration
	err     error
}

// client sends requests closed-loop: the next only after the previous
// response has been read to its end.
type client struct {
	http *http.Client
	url  string
}

func (c *client) send(ctx context.Context, req request) response {
	start := time.Now()
	resp := response{req: req}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/run", bytes.NewReader(req.body))
	if err != nil {
		resp.err = err
		return resp
	}
	res, err := c.http.Do(hr)
	if err != nil {
		resp.err = err
		return resp
	}
	defer res.Body.Close()
	resp.status = res.StatusCode
	br := bufio.NewReader(res.Body)
	for {
		line, err := br.ReadBytes('\n')
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case bytes.HasPrefix(line, []byte(`{"event":"cache"`)):
			var ev struct{ Hit bool }
			if json.Unmarshal(line, &ev) == nil {
				resp.hit = ev.Hit
			}
		case bytes.HasPrefix(line, []byte(`{"event":"result"`)):
			resp.result = line
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.err = err
			return resp
		}
	}
	resp.latency = time.Since(start)
	if resp.result == nil && resp.status == http.StatusOK {
		resp.err = fmt.Errorf("no result line for %s", req.key[:12])
	}
	return resp
}

// drive sends reqs with serviceClients closed-loop clients pulling from one
// shared queue, and returns the responses in request order. Each request
// is a serve.request span under parent when parent is not 0.
func drive(ctx context.Context, r *run, parent int, url string, reqs []request) []response {
	out := make([]response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{http: httpClient, url: url}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				start := time.Now()
				out[i] = cl.send(ctx, reqs[i])
				if parent != 0 {
					r.tr.record("serve.request", parent, start, time.Now())
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// httpClient keeps one idle connection per client alive between requests.
var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}

// runService serves a seeded mix of small grid specs to two closed-loop
// clients from daemons with the default in-memory result cache, replays
// them as memory-cache hits, fills a DiskCache through a daemon configured
// as with -cachedir, then restarts that daemon over the same DiskCache and
// artifact directories and replays every key once.
func runService(ctx context.Context, r *run) error {
	reqs, err := makeServiceRequests(r.seed)
	if err != nil {
		return err
	}
	p := benchPreset(eval.Quick().Seed)
	r.count("serve.failed", 0) // listed even when nothing fails
	r.count("serve.status_5xx", 0)

	// Each set-up is a cold daemon warmed over an empty artifact
	// directory, followed by the mixed phase over an empty result cache:
	// every key computes once, and the repeats hit or join.
	var d *daemon
	var artDir string
	var setups, colds []time.Duration
	results := map[string][]byte{}
	var missLat, hitLat []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		settle()
		artDir = r.dir(fmt.Sprintf("artifacts-%d", i))
		t, err := r.tr.timed("serve.setup", 0, func(id int) error {
			var err error
			if d, err = startDaemon(p, artDir, ""); err != nil {
				return err
			}
			_, err = r.tr.timed("exp.new", id, func(int) error { return d.srv.Warm(ctx, "quick") })
			return err
		})
		r.op("serve.setup", err == nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, t)

		settle()
		var mixed []response
		cold, _ := r.tr.timed("serve.mixed_phase", 0, func(id int) error {
			mixed = drive(ctx, r, id, d.url, reqs)
			return nil
		})
		colds = append(colds, cold)
		for _, resp := range mixed {
			if !r.account(resp, results, "mixed") {
				continue
			}
			if resp.req.orig && !resp.hit {
				missLat = append(missLat, ms(resp.latency))
			} else {
				r.count("serve.hits_joins", 1)
			}
		}
		computes, _, _ := d.srv.Stats()
		r.count("serve.computes", computes)
		r.expect("serve computes once per distinct key", computes == serviceSpecs,
			"%d computes for %d distinct keys", computes, serviceSpecs)
	}
	r.setMedian("setup_s", setups)
	r.setLayer("exp.new_s", median(secs(setups)), "s")
	r.setMedian("cold_s", colds)
	r.setExtra("serve.miss_p50_ms", median(missLat), "ms")
	r.setExtra("serve.miss_p95_ms", quantile(missLat, 0.95), "ms")
	computes, _, _ := d.srv.Stats()

	// Hit phase: every request again, from the last set-up's memory cache,
	// repeated for the measuring budget.
	settle()
	var hitPhase int64
	passes, err := r.repeat(func() (time.Duration, error) {
		var resps []response
		t, _ := r.tr.timed("serve.hit_pass", 0, func(id int) error {
			if hitPhase >= tracedHitRequests {
				id = 0 // keep the trace bounded: later passes record no request spans
			}
			resps = drive(ctx, r, id, d.url, reqs)
			return nil
		})
		for _, resp := range resps {
			if !r.account(resp, results, "hit phase") {
				return t, fmt.Errorf("hit phase: %v", resp.err)
			}
			r.expect("hit phase serves every request from the cache", resp.hit, "request %s computed", resp.req.key[:12])
			hitLat = append(hitLat, us(resp.latency))
			hitPhase++
		}
		return t, nil
	})
	if err != nil {
		return err
	}
	after, _, _ := d.srv.Stats()
	r.expect("hit phase computes nothing", after == computes, "%d computes after the hit phase, %d before", after, computes)
	r.setE2E("warm_s", median(secs(passes)), "s") // thousands of passes: not listed in passes_s
	r.count("serve.requests_per_hit_pass", int64(len(reqs)))
	r.setExtra("serve.hit_p50_us", median(hitLat), "us")
	r.setExtra("serve.hit_p99_us", quantile(hitLat, 0.99), "us")
	r.setExtra("serve.hit_phase_requests", float64(hitPhase), "count")
	d.stop()

	// Fill a DiskCache: a daemon configured as with -cachedir, over the
	// artifact directory the last set-up filled, computes every key once.
	uniq := originals(reqs)
	cacheDir := r.dir("resultcache")
	settle()
	fill, err := r.tr.timed("serve.fill", 0, func(id int) error {
		var err error
		if d, err = startDaemon(p, artDir, cacheDir); err != nil {
			return err
		}
		for _, resp := range drive(ctx, r, id, d.url, uniq) {
			r.account(resp, results, "fill")
		}
		computes, _, _ := d.srv.Stats()
		r.count("serve.computes", computes)
		r.expect("disk-cache fill computes every key once", computes == serviceSpecs,
			"%d computes for %d distinct keys", computes, serviceSpecs)
		return nil
	})
	d.stop()
	if err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	r.setExtra("serve.fill_s", fill.Seconds(), "s")

	// Restarts over the same DiskCache and artifact directories; each
	// replays every key once, from disk.
	var restarts []time.Duration
	var restartLat []float64
	for i := 0; i < restartReps; i++ {
		settle()
		t, err := r.tr.timed("serve.restart", 0, func(id int) error {
			var err error
			if d, err = startDaemon(p, artDir, cacheDir); err != nil {
				return err
			}
			if _, err = r.tr.timed("exp.new", id, func(int) error { return d.srv.Warm(ctx, "quick") }); err != nil {
				return err
			}
			for _, resp := range drive(ctx, r, id, d.url, uniq) {
				r.account(resp, results, "restart")
				r.expect("restart serves every key from the disk cache", resp.hit, "request %s computed", resp.req.key[:12])
				restartLat = append(restartLat, us(resp.latency))
			}
			return nil
		})
		r.op("serve.restart", err == nil)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		d.stop()
		restarts = append(restarts, t)
	}
	// Restart times cluster at two values, in proportions that vary from
	// run to run; the mean of many restarts moves smoothly with that mix
	// where the median would jump between the two.
	r.passes["restart_s"] = secs(restarts)
	r.setE2E("restart_s", mean(secs(restarts)), "s")
	r.setExtra("serve.restart_hit_p50_us", median(restartLat), "us")

	if r.tracing {
		x, err := exp.New(ctx, exp.WithPreset(p), exp.WithArtifactDir(artDir))
		if err != nil {
			return err
		}
		s, err := exp.ParseSpec(reqs[0].body)
		if err != nil {
			return err
		}
		return r.layerPass(ctx, x.Env(), s)
	}
	return nil
}

// account checks one response: a 2xx status, and a result line
// byte-identical to every other response for the same key. It counts the
// request and reports whether it succeeded.
func (r *run) account(resp response, results map[string][]byte, phase string) bool {
	ok := resp.err == nil && resp.status == http.StatusOK
	if resp.status >= 500 {
		r.count("serve.status_5xx", 1)
	}
	if phase != "hit phase" {
		r.count("serve.requests", 1)
		r.op("serve.request."+phase, ok)
		if !ok {
			r.count("serve.failed", 1)
		}
	}
	r.expect("every request succeeds", ok, "%s: status %d: %v", phase, resp.status, resp.err)
	if !ok {
		return false
	}
	first, seen := results[resp.req.key]
	if !seen {
		results[resp.req.key] = resp.result
		return true
	}
	r.expect("every result line equals the computed one", bytes.Equal(first, resp.result),
		"%s: key %s differs", phase, resp.req.key[:12])
	return true
}

// originals returns one request per key, in key order.
func originals(reqs []request) []request {
	var out []request
	for _, q := range reqs {
		if q.orig {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
