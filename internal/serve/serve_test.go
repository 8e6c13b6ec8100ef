package serve

// Tests for the verification service core: result-cache hits served
// without re-enumeration, single-flight coalescing of identical
// in-flight submissions, bounded-queue rejection, crash durability
// (a daemon aborted mid-job resumes on restart to a bit-identical
// certificate), and the HTTP surface.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pathrouting/internal/routing"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// waitTerminal polls a job until it reaches done/failed.
func waitTerminal(t *testing.T, s *Server, id string) JobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		doc := j.Snapshot()
		if doc.State == StateDone || doc.State == StateFailed {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, doc.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func pathsVerified(s *Server) float64 {
	return s.reg.Snapshot()["routing_paths_verified_total"]
}

// TestCacheHitSkipsEnumeration: a resubmitted identical job must be
// served from the result cache — same certificate, no paths verified
// (the acceptance criterion routed-smoke checks over HTTP).
func TestCacheHitSkipsEnumeration(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Start()

	spec := JobSpec{Alg: "strassen", K: 2}
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	doc1 := waitTerminal(t, s, j1.ID())
	if doc1.State != StateDone || doc1.Certificate == "" {
		t.Fatalf("first run: %+v", doc1)
	}
	if doc1.Cached {
		t.Fatal("first run claims cached")
	}

	before := pathsVerified(s)
	if before == 0 {
		t.Fatal("first run verified no paths")
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() == j1.ID() {
		t.Fatal("resubmission returned the completed job instead of a cache-hit job")
	}
	doc2 := j2.Snapshot()
	if doc2.State != StateDone || !doc2.Cached {
		t.Fatalf("resubmission not served from cache: %+v", doc2)
	}
	if doc2.Certificate != doc1.Certificate {
		t.Fatalf("cached certificate differs:\n%s\n%s", doc2.Certificate, doc1.Certificate)
	}
	if after := pathsVerified(s); after != before {
		t.Fatalf("cache hit advanced routing_paths_verified_total: %v -> %v", before, after)
	}

	// Normalized variants of the same job land on the same key.
	j3, err := s.Submit(JobSpec{Alg: "strassen", K: 2, Kernel: routing.KernelScratch, AdjStride: 257})
	if err != nil {
		t.Fatal(err)
	}
	if doc3 := j3.Snapshot(); !doc3.Cached {
		t.Fatalf("normalized-spec resubmission missed the cache: %+v", doc3)
	}
}

// TestCacheSurvivesRestart: a second server over the same data dir
// serves the first server's certificates from the disk spill.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{DataDir: dir})
	s1.Start()
	j1, err := s1.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	doc1 := waitTerminal(t, s1, j1.ID())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{DataDir: dir})
	// No Start: a warm cache needs no runners.
	j2, err := s2.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	doc2 := j2.Snapshot()
	if !doc2.Cached || doc2.Certificate != doc1.Certificate {
		t.Fatalf("restart lost the warm result: %+v", doc2)
	}
	if got := pathsVerified(s2); got != 0 {
		t.Fatalf("restarted server enumerated %v paths for a warm result", got)
	}
	// The completed job record also survived for polling.
	if _, ok := s2.Get(j1.ID()); !ok {
		t.Fatalf("job %s not recovered", j1.ID())
	}
}

// TestSingleFlightCoalescing: identical submissions join the one
// in-flight job; distinct specs don't.
func TestSingleFlightCoalescing(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 8})
	// Deliberately not started: everything stays queued.
	a1, err := s.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("identical submissions got distinct jobs %s, %s", a1.ID(), a2.ID())
	}
	if doc := a1.Snapshot(); doc.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", doc.Coalesced)
	}
	b, err := s.Submit(JobSpec{Alg: "strassen", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b == a1 {
		t.Fatal("distinct specs coalesced")
	}
	if got := s.reg.Snapshot()["serve_jobs_coalesced_total"]; got != 1 {
		t.Fatalf("serve_jobs_coalesced_total = %v, want 1", got)
	}

	// Late joiners still get the certificate once the run completes.
	s.Start()
	doc := waitTerminal(t, s, a2.ID())
	if doc.State != StateDone || doc.Certificate == "" {
		t.Fatalf("coalesced job never completed: %+v", doc)
	}
}

// TestQueueBounded: submissions beyond QueueDepth fail loudly instead
// of queueing unboundedly; identical specs coalesce instead of
// consuming a slot.
func TestQueueBounded(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 1})
	// Not started, so the queue never drains.
	if _, err := s.Submit(JobSpec{Alg: "strassen", K: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Alg: "strassen", K: 2}); err != ErrQueueFull {
		t.Fatalf("overflow submission: err = %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(JobSpec{Alg: "strassen", K: 1}); err != nil {
		t.Fatalf("coalescing submission rejected by full queue: %v", err)
	}
	// The rejected job must leave no orphan state.
	for _, j := range s.Jobs() {
		if j.Spec().K == 2 {
			t.Fatal("rejected job still registered")
		}
	}
}

// TestSubmitValidation: bad specs are rejected before touching the
// queue.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Options{MaxK: 3})
	for _, spec := range []JobSpec{
		{Alg: "nope", K: 2},
		{Alg: "strassen", K: 0},
		{Alg: "strassen", K: 4}, // beyond MaxK
		{Alg: "strassen", K: 2, Kernel: "quantum"},
		{Alg: "strassen", K: 2, Kernel: "seed"},
		{Alg: "strassen", K: 2, AdjStride: -1},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs registered by invalid submissions", n)
	}
}

// TestCrashResumeBitIdentical is the durability acceptance test: a
// server aborted mid-job (stop closed between shards, process state
// discarded) must, on restart over the same data dir, resume the job
// from its checkpoint and finish with a certificate bit-identical to
// an uninterrupted run's.
func TestCrashResumeBitIdentical(t *testing.T) {
	// Uninterrupted reference.
	ref := newTestServer(t, Options{})
	ref.Start()
	spec := JobSpec{Alg: "strassen", K: 3, ShardRows: 16} // 8 shards
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, jr.ID())
	if want.State != StateDone {
		t.Fatalf("reference run: %+v", want)
	}

	// First daemon: abort after the second shard completes.
	dir := t.TempDir()
	id := interruptJob(t, dir, spec)
	cp, err := routing.LoadCheckpoint(filepath.Join(dir, "jobs", id, "run.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.DoneCount == 0 || cp.DoneCount == cp.NumShards {
		t.Fatalf("abort left %d/%d shards — not mid-job", cp.DoneCount, cp.NumShards)
	}

	// A job directory whose spec names the removed seed kernel, as an
	// older daemon may have left it: recovery skips it, as it skips any
	// spec the server rejects.
	seedDir := filepath.Join(dir, "jobs", "j00000099")
	if err := os.MkdirAll(seedDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(filepath.Join(seedDir, "spec.json"), specRecord{
		ID: "j00000099", Key: "seed-key", Spec: JobSpec{Alg: "strassen", K: 2, Kernel: "seed"},
	}); err != nil {
		t.Fatal(err)
	}

	// Second daemon over the same dir: recovery re-enqueues, the run
	// resumes from the checkpoint, and the certificate matches.
	s2 := newTestServer(t, Options{DataDir: dir, JobWorkers: 3})
	if _, ok := s2.Get("j00000099"); ok {
		t.Fatal("job with the removed seed kernel recovered")
	}
	j2, ok := s2.Get(id)
	if !ok {
		t.Fatalf("job %s not recovered", id)
	}
	if !j2.Snapshot().Resumed {
		t.Fatal("recovered job not marked resumed")
	}
	s2.Start()
	doc2 := waitTerminal(t, s2, j2.ID())
	if doc2.State != StateDone {
		t.Fatalf("resumed job: %+v", doc2)
	}
	if doc2.Certificate != want.Certificate {
		t.Fatalf("resumed certificate differs from uninterrupted run:\nresumed %s\nfresh   %s",
			doc2.Certificate, want.Certificate)
	}
	if withoutElapsed(*doc2.Stats) != withoutElapsed(*want.Stats) {
		t.Fatalf("resumed stats differ:\nresumed %+v\nfresh   %+v", *doc2.Stats, *want.Stats)
	}
}

func withoutElapsed(d statsDoc) statsDoc { d.ElapsedSec = 0; return d }

// interruptJob submits spec to a server over dir and stops that server
// once two shards are done, leaving a job directory that a restarted
// server recovers. It returns the job's ID. Stop is closed from the
// shard callback, so the engine drains: every completed shard is
// merged and saved before the run returns. That is a graceful stop,
// not a kill -9, which loses the work since the last timed save (see
// routing.CheckpointConfig).
func interruptJob(t *testing.T, dir string, spec JobSpec) string {
	t.Helper()
	var (
		s       *Server
		once    sync.Once
		aborted = make(chan struct{})
	)
	s = newTestServer(t, Options{DataDir: dir, JobWorkers: 2, OnShard: func(_ *Job, d routing.ShardDone) {
		if !d.Restored && d.Done >= 2 {
			once.Do(func() {
				s.BeginDrain() // the engine saves every completed shard on drain
				close(aborted)
			})
		}
	}})
	s.Start()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-aborted:
	case <-time.After(30 * time.Second):
		t.Fatal("failpoint never fired")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if doc := j.Snapshot(); doc.State != StateQueued {
		t.Fatalf("aborted job state = %s, want queued (got %+v)", doc.State, doc)
	}
	return j.ID()
}

// TestRecoveryRejectsUntrustedCheckpoint: a recovered job whose
// checkpoint cannot be trusted — a version-1 (gob) file, or a current
// one with a flipped bit — is not failed. Its checkpoint is set aside
// as run.ckpt.rejected and the job reruns from scratch to the
// uninterrupted run's certificate.
func TestRecoveryRejectsUntrustedCheckpoint(t *testing.T) {
	spec := JobSpec{Alg: "strassen", K: 2, ShardRows: 4} // 8 shards
	ref := newTestServer(t, Options{})
	ref.Start()
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, jr.ID())
	if want.State != StateDone {
		t.Fatalf("reference run: %+v", want)
	}
	v1, err := os.ReadFile(filepath.Join("..", "routing", "testdata", "v1-strassen-k2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(ckpt []byte) []byte
	}{
		{"v1 file", func([]byte) []byte { return v1 }},
		{"flipped bit", func(ckpt []byte) []byte { ckpt[len(ckpt)/2] ^= 0x10; return ckpt }},
	} {
		dir := t.TempDir()
		id := interruptJob(t, dir, spec)
		path := filepath.Join(dir, "jobs", id, "run.ckpt")
		ckpt, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := tc.corrupt(ckpt)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}

		s := newTestServer(t, Options{DataDir: dir})
		s.Start()
		doc := waitTerminal(t, s, id)
		if doc.State != StateDone {
			t.Fatalf("%s: recovered job: %+v", tc.name, doc)
		}
		if doc.Certificate != want.Certificate || withoutElapsed(*doc.Stats) != withoutElapsed(*want.Stats) {
			t.Fatalf("%s: rerun certificate differs from uninterrupted run:\nrerun %s\nfresh %s",
				tc.name, doc.Certificate, want.Certificate)
		}
		rejected, err := os.ReadFile(path + ".rejected")
		if err != nil || !bytes.Equal(rejected, bad) {
			t.Fatalf("%s: untrusted checkpoint not set aside intact (err %v)", tc.name, err)
		}
	}
}

// TestJobResourcesAccounted: a completed job's doc carries a populated
// Resources block — timeline stamps, wall/CPU/allocation costs, and a
// throughput figure — and the per-job cost metrics record the outcome.
func TestJobResourcesAccounted(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Start()
	j, err := s.Submit(JobSpec{Alg: "strassen", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	doc := waitTerminal(t, s, j.ID())
	if doc.State != StateDone {
		t.Fatalf("job: %+v", doc)
	}
	res := doc.Resources
	if res == nil {
		t.Fatal("done job has no Resources block")
	}
	if res.Legs != 1 {
		t.Fatalf("Legs = %d, want 1", res.Legs)
	}
	if res.QueuedAt == "" || res.StartedAt == "" || res.FinishedAt == "" {
		t.Fatalf("timeline incomplete: %+v", res)
	}
	if res.WallSeconds <= 0 || res.QueueWaitSeconds < 0 || res.AllocBytes <= 0 {
		t.Fatalf("costs not accounted: %+v", res)
	}
	if res.PathsPerSec <= 0 {
		t.Fatalf("PathsPerSec = %f", res.PathsPerSec)
	}
	snap := s.reg.Snapshot()
	if snap[`serve_job_cpu_seconds_count{outcome="done"}`] != 1 ||
		snap[`serve_job_queue_wait_seconds_count{outcome="done"}`] != 1 {
		t.Fatalf("cost metrics not observed: %+v", snap)
	}
}

// TestAccountingSurvivesRestart: the cost accounting of a job aborted
// mid-run is persisted at every shard completion, and the resumed leg
// accumulates onto the crashed leg's totals instead of resetting them.
func TestAccountingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	id := interruptJob(t, dir, JobSpec{Alg: "strassen", K: 3, ShardRows: 16}) // 8 shards

	// The crashed leg's accounting must already be on disk: the shard
	// boundary persisted spec.json before announcing the shard, so a
	// kill -9 at any point loses at most one shard of cost.
	var specRec struct {
		Resources *ResourcesDoc `json:"resources"`
	}
	body, err := os.ReadFile(filepath.Join(dir, "jobs", id, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &specRec); err != nil {
		t.Fatal(err)
	}
	leg1 := specRec.Resources
	if leg1 == nil || leg1.Legs != 1 {
		t.Fatalf("crashed leg not persisted in spec.json: %+v", leg1)
	}
	if leg1.WallSeconds <= 0 || leg1.StartedAt == "" {
		t.Fatalf("crashed leg costs empty: %+v", leg1)
	}
	if leg1.FinishedAt != "" {
		t.Fatalf("aborted job claims a finish time: %+v", leg1)
	}

	// Restart: the resumed leg folds onto the persisted totals.
	s2 := newTestServer(t, Options{DataDir: dir, JobWorkers: 3})
	s2.Start()
	doc := waitTerminal(t, s2, id)
	if doc.State != StateDone {
		t.Fatalf("resumed job: %+v", doc)
	}
	res := doc.Resources
	if res == nil {
		t.Fatal("resumed job has no Resources block")
	}
	if res.Legs != 2 {
		t.Fatalf("Legs = %d, want 2 (crashed + resumed)", res.Legs)
	}
	if res.WallSeconds < leg1.WallSeconds {
		t.Fatalf("wall time went backwards across restart: %f -> %f", leg1.WallSeconds, res.WallSeconds)
	}
	if res.AllocBytes < leg1.AllocBytes {
		t.Fatalf("alloc bytes went backwards across restart: %d -> %d", leg1.AllocBytes, res.AllocBytes)
	}
	if res.QueuedAt != leg1.QueuedAt || res.StartedAt != leg1.StartedAt {
		t.Fatalf("resumed leg rewrote the job's origin stamps: %+v vs %+v", res, leg1)
	}
	if res.FinishedAt == "" || res.PathsPerSec <= 0 {
		t.Fatalf("resumed leg not finalized: %+v", res)
	}
}

// TestHTTPEndpoints drives the mounted mux end to end with httptest.
func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, Options{})
	s.Start()
	mux := http.NewServeMux()
	s.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	// Bad specs: 400 with a JSON error.
	for _, bad := range []string{"{", `{"alg":"nope","k":2}`, `{"alg":"strassen","k":0}`} {
		resp, body := post(bad)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
			t.Fatalf("POST %q: %d %s", bad, resp.StatusCode, body)
		}
	}
	// Kernels: the removed seed kernel gets a 400 that says so and names
	// its replacement; any other unknown kernel the plain unknown-kernel
	// 400.
	for _, c := range []struct{ body, want string }{
		{`{"alg":"strassen","k":2,"kernel":"seed"}`, `kernel \"seed\" was removed: \"scratch\" certifies the same Stats`},
		{`{"alg":"strassen","k":2,"kernel":"quantum"}`, `unknown kernel \"quantum\" (want \"scratch\")`},
	} {
		resp, body := post(c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, c.want) {
			t.Fatalf("POST %s: %d %s, want 400 naming %s", c.body, resp.StatusCode, body, c.want)
		}
	}

	// Submit: 202 with a job ID.
	resp, body := post(`{"alg":"strassen","k":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var doc JobDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("submit response not JSON: %v\n%s", err, body)
	}
	if doc.ID == "" || doc.Key == "" {
		t.Fatalf("submit doc incomplete: %s", body)
	}

	// Poll to completion.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get("/jobs/" + doc.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.State == StateDone {
			break
		}
		if doc.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if doc.Certificate == "" || doc.Stats == nil || doc.Stats.MaxVertexHits > doc.Stats.Bound {
		t.Fatalf("completed doc incomplete: %s", body)
	}

	// Resubmission over HTTP: 200 + cached.
	resp, body = post(`{"alg":"strassen","k":2}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"cached": true`) {
		t.Fatalf("cached resubmit: %d %s", resp.StatusCode, body)
	}

	// Listing and 404.
	resp, body = get("/jobs")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, doc.ID) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	if resp, _ = get("/jobs/j99999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
}

// TestHealthSnapshot: the daemon /healthz document carries queue and
// cache state and survives json marshaling.
func TestHealthSnapshot(t *testing.T) {
	s := newTestServer(t, Options{QueueDepth: 4, Concurrency: 2})
	s.Start()
	j, err := s.Submit(JobSpec{Alg: "strassen", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, j.ID())
	body, err := json.Marshal(s.Health())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"queue_cap":4`, `"concurrency":2`, `"status":"ok"`, `"cache_entries":1`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("health missing %s:\n%s", want, body)
		}
	}
}
