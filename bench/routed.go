package main

// routed-mix: traffic against the routed service. A closed loop of two
// clients, each with one keep-alive connection, submits jobs back to
// back. 15% of submissions are fresh keys, drawn in seeded order from
// twenty (algorithm, k, orbits) configurations whose cold runs cost
// about 1-120 ms, each with a fresh adjacency stride; the rest repeat
// a key already accepted, which is a cache hit, or a coalesced
// submission while the first job still runs. A hit waits on the POST;
// any other submission follows GET /jobs/{id}/events to the final
// event. Every certificate of a key must equal the key's first.
//
// A run populates a data directory with a fixed number of submissions,
// relaunches routed over it several times (set-up is launch to the
// "routed listening on" line), runs the measured loop on the last
// launch, then restarts routed once more and resubmits known keys,
// which must all be hits. The traced run repeats the sequence against
// an in-process server (serve.New + Mount on httptest), with a span
// around each submission, SubmitTrace call, POST and event stream.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pathrouting/internal/serve"
)

const (
	mixClients    = 2
	freshShare    = 0.15
	populateN     = 100 // submissions before the set-up relaunches
	relaunches    = 5
	restartKeys   = 20
	smokePopulate = 10
	smokeLoop     = 40
	// jobWorkers is the verifier goroutines per job. One, on two cores,
	// leaves a core to the HTTP path, so a hit's latency measures the
	// hit path rather than how long it queued behind the verifier.
	jobWorkers = 1
	// maxStride bounds the drawn adjacency strides, which keeps the key
	// space far larger than the fresh keys a run draws.
	maxStride = 4096
)

// mixConfigs are the fresh-key configurations; orbits false is
// submitted with the field omitted.
var mixConfigs = func() []serve.JobSpec {
	var out []serve.JobSpec
	for _, c := range []struct {
		alg string
		k   int
	}{
		{"strassen", 3}, {"strassen", 4}, {"winograd", 3}, {"winograd", 4},
		{"classical2", 3}, {"classical2", 4}, {"laderman", 2}, {"classical3", 2},
		{"strassen2", 2}, {"disconnected56", 2},
	} {
		for _, orbits := range []bool{false, true} {
			out = append(out, serve.JobSpec{Alg: c.alg, K: c.k, Orbits: orbits})
		}
	}
	return out
}()

// mixGen draws the submission sequence from the seed. Fresh keys cycle
// through mixConfigs in a shuffled order, so every run's cold work is
// nearly the same; repeats draw from the keys the server accepted.
type mixGen struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cycle  []serve.JobSpec
	pos    int
	seen   map[serve.JobSpec]bool
	issued []serve.JobSpec
}

func newMixGen(seed int64) *mixGen {
	g := &mixGen{rng: rand.New(rand.NewSource(seed)), seen: map[serve.JobSpec]bool{}}
	g.cycle = append(g.cycle, mixConfigs...)
	g.pos = len(g.cycle)
	return g
}

func (g *mixGen) draw() (spec serve.JobSpec, fresh bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.issued) > 0 && g.rng.Float64() >= freshShare {
		return g.issued[g.rng.Intn(len(g.issued))], false
	}
	if g.pos == len(g.cycle) {
		g.rng.Shuffle(len(g.cycle), func(i, j int) { g.cycle[i], g.cycle[j] = g.cycle[j], g.cycle[i] })
		g.pos = 0
	}
	spec = g.cycle[g.pos]
	g.pos++
	for {
		spec.AdjStride = 2 + g.rng.Int63n(maxStride-1)
		if !g.seen[spec] {
			g.seen[spec] = true
			return spec, true
		}
	}
}

// accepted makes a fresh key available for repeats.
func (g *mixGen) accepted(spec serve.JobSpec) {
	g.mu.Lock()
	g.issued = append(g.issued, spec)
	g.mu.Unlock()
}

// certBook holds each key's first certificate.
type certBook struct {
	mu    sync.Mutex
	certs map[serve.JobSpec]string
}

// check accepts a finished job's document for spec: done, for spec,
// and with the certificate every earlier job of the key returned.
func (b *certBook) check(spec serve.JobSpec, doc serve.JobDoc) error {
	if doc.State != serve.StateDone || doc.Certificate == "" {
		return fmt.Errorf("job %s for %+v ended %q: %s", doc.ID, spec, doc.State, doc.Error)
	}
	got := doc.Spec
	if got.Alg != spec.Alg || got.K != spec.K || got.Orbits != spec.Orbits || got.AdjStride != spec.AdjStride {
		return fmt.Errorf("job %s: spec %+v, submitted %+v", doc.ID, got, spec)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if first, ok := b.certs[spec]; !ok {
		b.certs[spec] = doc.Certificate
	} else if first != doc.Certificate {
		return fmt.Errorf("job %s: certificate for %+v differs from the key's first", doc.ID, spec)
	}
	return nil
}

// sample draws up to n known keys, in an order fixed by rng.
func (b *certBook) sample(rng *rand.Rand, n int) []serve.JobSpec {
	b.mu.Lock()
	specs := make([]serve.JobSpec, 0, len(b.certs))
	for s := range b.certs {
		specs = append(specs, s)
	}
	b.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool { return fmt.Sprint(specs[i]) < fmt.Sprint(specs[j]) })
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs[:min(n, len(specs))]
}

// client is one closed-loop client with one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post submits spec; any status but 200 and 202 is an error.
func (c *client) post(ctx context.Context, spec serve.JobSpec) (int, serve.JobDoc, error) {
	var doc serve.JobDoc
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, doc, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, doc, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, doc, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, doc, fmt.Errorf("POST /jobs: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, doc, fmt.Errorf("POST /jobs %+v: %s: %s", spec, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return resp.StatusCode, doc, fmt.Errorf("POST /jobs: %w", err)
	}
	return resp.StatusCode, doc, nil
}

// final follows the job's event stream to its final event and returns
// that event's document and when it arrived.
func (c *client) final(ctx context.Context, id string) (serve.JobDoc, time.Time, error) {
	var doc serve.JobDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return doc, time.Time{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return doc, time.Time{}, err
	}
	defer resp.Body.Close()
	// Read to the end so the connection is reused.
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return doc, time.Time{}, fmt.Errorf("GET /jobs/%s/events: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "final" && strings.HasPrefix(line, "data: "):
			at := time.Now()
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &doc)
			return doc, at, err
		case line == "":
			event = ""
		}
	}
	return doc, time.Time{}, fmt.Errorf("GET /jobs/%s/events: stream ended without a final event (%v)", id, sc.Err())
}

// mix drives one phase of submissions and collects their latencies.
type mix struct {
	r     *run
	tr    *tracer // nil: no spans (the phase against the routed binary)
	gen   *mixGen
	certs *certBook

	mu       sync.Mutex
	hit      []float64 // seconds, POST round trips of cache hits
	cold     []float64 // seconds, POST to final event of every other submission
	all      []float64
	outcomes map[string]int
}

func (m *mix) reset() {
	m.mu.Lock()
	m.hit, m.cold, m.all, m.outcomes = nil, nil, nil, map[string]int{}
	m.mu.Unlock()
}

// drive runs the closed loop against base until budget has passed, or
// until limit submissions when limit > 0. srv, when set, is the
// in-process server behind base: fresh keys and every other repeat
// then go to its SubmitTrace directly instead of over HTTP. It returns
// the time to the last completion and the completed submissions.
func (m *mix) drive(base string, srv *serve.Server, limit int, budget time.Duration) (time.Duration, int) {
	start := time.Now()
	var (
		mu      sync.Mutex
		started int
		done    int
		last    = start
		wg      sync.WaitGroup
	)
	next := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if m.r.ctx.Err() != nil || limit > 0 && started >= limit || limit <= 0 && time.Since(start) >= budget {
			return false
		}
		started++
		return true
	}
	for range mixClients {
		c := newClient(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for i := 0; next(); i++ {
				spec, fresh := m.gen.draw()
				if m.submit(c, srv, spec, fresh, i) {
					mu.Lock()
					done++
					last = time.Now()
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return last.Sub(start), done
}

// submit makes one submission and waits for its certificate.
func (m *mix) submit(c *client, srv *serve.Server, spec serve.JobSpec, fresh bool, i int) bool {
	ctx := m.r.ctx
	rep := m.tr.begin(m.r.root, "submission")
	start := time.Now()
	var (
		status int
		doc    serve.JobDoc
		err    error
		sp     *span
	)
	if srv != nil && (fresh || i%2 == 1) {
		sp = m.tr.begin(rep, "serve.submit")
		var j *serve.Job
		j, err = srv.SubmitTrace(spec, "")
		sp.finish()
		if err == nil {
			// The status POST /jobs would answer with.
			doc, status = j.Snapshot(), http.StatusAccepted
			if doc.State == serve.StateDone || doc.State == serve.StateFailed {
				status = http.StatusOK
			}
		}
	} else {
		sp = m.tr.begin(rep, "serve.post")
		status, doc, err = c.post(ctx, spec)
		sp.finish()
	}
	outcome := classify(status, doc, fresh)
	sp.set("outcome", outcome)
	if err == nil && fresh {
		m.gen.accepted(spec)
	}
	if err == nil && status == http.StatusAccepted {
		ev := m.tr.begin(rep, "serve.events")
		ev.set("outcome", outcome)
		var at time.Time
		doc, at, err = c.final(ctx, doc.ID)
		ev.finish()
		if res := doc.Resources; err == nil && res != nil {
			ev.set("queue_wait_sec", res.QueueWaitSeconds)
			ev.set("run_sec", res.WallSeconds)
			ev.set("cpu_sec", res.CPUSeconds)
			if fin, err := time.Parse(time.RFC3339Nano, res.FinishedAt); err == nil {
				ev.set("final_lag_sec", at.Sub(fin).Seconds())
			}
		}
	}
	lat := time.Since(start).Seconds()
	rep.finish()
	if err == nil {
		err = m.certs.check(spec, doc)
	}
	if !m.r.op(err) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outcomes[outcome]++
	m.all = append(m.all, lat)
	if outcome == "hit" {
		m.hit = append(m.hit, lat)
	} else {
		m.cold = append(m.cold, lat)
	}
	return true
}

// classify names a submission's outcome from the server's answer.
func classify(status int, doc serve.JobDoc, fresh bool) string {
	switch {
	case status == http.StatusOK && doc.Cached:
		return "hit"
	case fresh:
		return "miss"
	default:
		return "coalesced"
	}
}

// daemon is one launched routed process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	ready   float64 // seconds from exec to the listening line
	exited  chan struct{}
	waitErr error
	tail    []string // last stderr lines, for errors

	once    sync.Once
	stopErr error
}

// startRouted launches routed over dir and waits for it to listen.
func startRouted(ctx context.Context, bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-datadir", dir, "-jobworkers", strconv.Itoa(jobWorkers))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	type listening struct {
		url   string
		after time.Duration
	}
	up := make(chan listening, 1)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if url, ok := strings.CutPrefix(line, "routed listening on "); ok && !sent {
				up <- listening{url, time.Since(start)}
				sent = true
			}
			d.tail = append(d.tail, line)
			if len(d.tail) > 5 {
				d.tail = d.tail[1:]
			}
		}
		io.Copy(io.Discard, pipe)
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case l := <-up:
		d.url, d.ready = l.url, l.after.Seconds()
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("routed exited before listening: %v: %s", d.waitErr, strings.Join(d.tail, " | "))
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	d.stop()
	return nil, errors.New("routed did not start listening")
}

// stop drains routed with SIGTERM (killing it after 30 s) and returns
// its resource usage. Idempotent.
func (d *daemon) stop() (*syscall.Rusage, error) {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
			// routed prints its listening line before it installs the
			// signal handler, so a stop right after the line can find
			// the default action; the daemon is idle then, so that
			// counts as a clean stop.
			var ee *exec.ExitError
			if errors.As(d.waitErr, &ee) {
				if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
					break
				}
			}
			if d.waitErr != nil {
				d.stopErr = fmt.Errorf("routed exit: %v: %s", d.waitErr, strings.Join(d.tail, " | "))
			}
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
			d.stopErr = errors.New("routed did not drain within 30s")
		}
	})
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, d.stopErr
}

// healthy checks that the daemon at base answers /healthz.
func healthy(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: %s", resp.Status)
	}
	return nil
}

func routedMix(r *run) error {
	certs := &certBook{certs: map[serve.JobSpec]string{}}
	if err := routedBinary(r, certs); err != nil {
		return err
	}
	if r.trace {
		return routedInProcess(r, certs)
	}
	return nil
}

func (r *run) mixSizes() (populate, loop int) {
	if r.smoke {
		return smokePopulate, smokeLoop
	}
	return populateN, 0
}

// routedBinary runs the sequence against the routed binary.
func routedBinary(r *run, certs *certBook) error {
	bin := r.tools["routed"]
	dir := filepath.Join(r.work, "routed-data")
	var daemons []*daemon
	defer func() {
		for _, d := range daemons {
			d.stop()
		}
	}()
	launch := func() (*daemon, error) {
		d, err := startRouted(r.ctx, bin, dir)
		if err != nil {
			return nil, err
		}
		daemons = append(daemons, d)
		return d, nil
	}
	m := &mix{r: r, gen: newMixGen(r.seed), certs: certs, outcomes: map[string]int{}}
	populate, loop := r.mixSizes()

	d, err := launch()
	if err != nil {
		return err
	}
	m.drive(d.url, nil, populate, 0)
	if _, err := d.stop(); !r.op(err) {
		return err
	}
	for i := range relaunches {
		if d, err = launch(); err != nil {
			return err
		}
		if r.op(healthy(r.ctx, d.url)) {
			r.setup = append(r.setup, d.ready)
		}
		if i < relaunches-1 {
			ru, err := d.stop()
			if !r.op(err) {
				return err
			}
			r.rssMB = append(r.rssMB, maxrssMB(ru))
		}
	}

	m.reset()
	elapsed, n := m.drive(d.url, nil, loop, r.budget())
	ru, err := d.stop()
	if !r.op(err) {
		return err
	}
	r.addWindow(elapsed, n)
	r.cpuSec += cpuSeconds(ru)
	r.latency = m.cold
	r.untraced = m.all

	if d, err = launch(); err != nil {
		return err
	}
	c := newClient(d.url)
	for _, spec := range certs.sample(rand.New(rand.NewSource(r.seed)), restartKeys) {
		status, doc, err := c.post(r.ctx, spec)
		if err == nil && (status != http.StatusOK || !doc.Cached) {
			err = fmt.Errorf("after restart, %+v was not a cache hit (status %d)", spec, status)
		}
		if err == nil {
			err = certs.check(spec, doc)
		}
		r.op(err)
	}
	c.close()
	if _, err := d.stop(); !r.op(err) {
		return err
	}

	r.timing("job_hit_ms", "ms", 1e3, m.hit)
	r.timing("job_cold_ms", "ms", 1e3, m.cold)
	r.note("%-22s %10.2f 1/s  %d submissions in %.2fs: %d hits, %d misses, %d coalesced",
		"jobs_per_s", float64(n)/elapsed.Seconds(), n, elapsed.Seconds(),
		m.outcomes["hit"], m.outcomes["miss"], m.outcomes["coalesced"])
	r.note("%-22s %10.1f MB   the loop's routed process, which holds every job it served", "loop_rss_mb", maxrssMB(ru))
	if !r.trace {
		r.timing("setup_s", "s", 1, r.setup)
		r.note("%-22s %10.1f MB   median of %d relaunches over the populated data directory", "peak_rss_mb", median(r.rssMB), len(r.rssMB))
	}
	return nil
}

// routedInProcess repeats the sequence against an in-process server,
// with spans.
func routedInProcess(r *run, certs *certBook) error {
	opts := serve.Options{DataDir: filepath.Join(r.work, "serve-data"), JobWorkers: jobWorkers}
	m := &mix{r: r, gen: newMixGen(r.seed), certs: certs, outcomes: map[string]int{}}
	populate, loop := r.mixSizes()

	s, err := serve.New(opts)
	if err != nil {
		return err
	}
	stop := listen(s)
	m.drive(stop.url, nil, populate, 0)
	if err := stop.close(); err != nil {
		return err
	}
	for i := range relaunches {
		err := r.tr.traced(r.root, "serve.recover", func(*span) error {
			var err error
			s, err = serve.New(opts)
			return err
		})
		if !r.op(err) {
			return err
		}
		if i < relaunches-1 {
			if err := shutdown(s); err != nil {
				return err
			}
		}
	}
	stop = listen(s)
	m.tr = r.tr
	m.reset()
	m.drive(stop.url, s, loop, r.budget())
	if err := stop.close(); err != nil {
		return err
	}

	hits, misses, coalesced := m.outcomes["hit"], m.outcomes["miss"], m.outcomes["coalesced"]
	r.derived["serve.hits"] = float64(hits)
	r.derived["serve.misses"] = float64(misses)
	r.derived["serve.coalesced"] = float64(coalesced)
	if total := hits + misses + coalesced; total > 0 {
		r.derived["serve.hit_ratio"] = float64(hits) / float64(total)
	}
	r.traceRatios("submission", r.untraced)
	return nil
}

// inProcess is a started in-process server and its HTTP listener.
type inProcess struct {
	s   *serve.Server
	ts  *httptest.Server
	url string
}

// listen mounts s's job API on a loopback listener and starts its
// runners.
func listen(s *serve.Server) *inProcess {
	mux := http.NewServeMux()
	s.Mount(mux)
	ts := httptest.NewServer(mux)
	s.Start()
	return &inProcess{s: s, ts: ts, url: ts.URL}
}

// close drains the server the way routed does on SIGTERM.
func (p *inProcess) close() error {
	p.s.BeginDrain()
	p.ts.Close()
	return shutdown(p.s)
}

func shutdown(s *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}
