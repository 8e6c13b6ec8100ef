package main

// job-k5: routing.RunJob, the entry point the routed service runs for
// every cold job, on Strassen k=5 with the orbit-reduced scan, two
// workers and 64-row shards (32 shards, each followed by a checkpoint
// rewrite). Every fourth job is paused at half and resumed; the rest
// run uninterrupted, each in a fresh directory.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pathrouting/internal/cdag"
	"pathrouting/internal/routing"
)

// jobSize is the job's depth and shard size; smoke runs shrink both.
func (r *run) jobSize() (k int, shardRows int64) {
	if r.smoke {
		return 3, 8
	}
	return 5, 64
}

func (r *run) jobConfig(path string) routing.JobConfig {
	k, rows := r.jobSize()
	return routing.JobConfig{
		Alg: catalog("strassen"), K: k, Workers: 2, Orbits: true,
		CheckpointPath: path, ShardRows: rows,
	}
}

// pausedJob runs a job that stops itself once half its shards are
// done; it must report ErrPaused.
func (r *run) pausedJob(path string) error {
	cfg := r.jobConfig(path)
	stop := make(chan struct{})
	var once sync.Once
	cfg.Stop = stop
	cfg.OnShard = func(d routing.ShardDone) {
		if 2*d.Done >= d.Total {
			once.Do(func() { close(stop) })
		}
	}
	_, err := routing.RunJob(context.Background(), cfg)
	if !errors.Is(err, routing.ErrPaused) {
		return fmt.Errorf("paused job: got %v, want ErrPaused", err)
	}
	return nil
}

// resumedJob finishes the job checkpointed at path.
func (r *run) resumedJob(path string) error {
	k, _ := r.jobSize()
	cfg := r.jobConfig(path)
	cfg.Resume = true
	st, err := routing.RunJob(context.Background(), cfg)
	if err != nil {
		return fmt.Errorf("resumed job: %w", err)
	}
	return checkStats(st, k)
}

// jobSetup builds what a job builds before its scan — G_k, its
// adjacency and meta-root indices, and the router with its Hall
// matching — and returns the time taken. A run measures it before
// each job.
func jobSetup(k int) (float64, error) {
	start := time.Now()
	g, err := cdag.New(catalog("strassen"), k)
	if err != nil {
		return 0, err
	}
	g.EnsureAdjacencyIndex()
	g.EnsureMetaRootIndex()
	if _, err := routing.NewRouter(g); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

func jobK5(r *run) error {
	k, _ := r.jobSize()
	var resumes []float64
	// The seed picks where the paused jobs fall.
	phase := int(r.seed % 4)
	cpu0, _ := selfUsage()
	elapsed, n := r.measure(r.budget(), 4, func(i int) {
		if !r.trace {
			s, err := jobSetup(k)
			if r.op(err) {
				r.setup = append(r.setup, s)
			}
		}
		path := filepath.Join(r.work, fmt.Sprintf("job-%d.ckpt", i))
		defer os.Remove(path)
		start := time.Now()
		if (i+phase)%4 != 0 {
			st, err := routing.RunJob(context.Background(), r.jobConfig(path))
			if err == nil {
				err = checkStats(st, k)
			}
			if r.op(err) {
				r.latency = append(r.latency, time.Since(start).Seconds())
			}
			return
		}
		err := r.pausedJob(path)
		if err == nil {
			err = r.resumedJob(path)
		}
		if r.op(err) {
			resumes = append(resumes, time.Since(start).Seconds())
		}
	})
	cpu1, rss := selfUsage()
	r.addWindow(elapsed, n)
	r.cpuSec += cpu1 - cpu0
	r.rssMB = append(r.rssMB, rss)
	r.timing("job_s", "s", 1, r.latency)
	r.timing("resume_s", "s", 1, resumes)
	if !r.trace {
		r.timing("setup_s", "s", 1, r.setup)
		r.note("%-22s %10.1f MB   this process", "peak_rss_mb", median(r.rssMB))
		return nil
	}

	// Traced: alternate a replica of one job's work without its
	// checkpoint writes (spans per layer) with a pause/resume pair of
	// real jobs around a LoadCheckpoint of the paused file.
	r.measure(r.budget(), 2, func(i int) {
		if i%2 == 0 {
			rep := r.tr.begin(r.root, "job")
			_, _, err := scanReplica(r, rep, k)
			rep.finish()
			r.op(err)
			return
		}
		path := filepath.Join(r.work, fmt.Sprintf("traced-%d.ckpt", i))
		defer os.Remove(path)
		rep := r.tr.begin(r.root, "resume")
		r.op(resumeReplica(r, rep, path))
		rep.finish()
	})
	r.traceRatios("resume", resumes)
	_, covered := r.reps("job")
	if b := median(r.latency); b > 0 && len(covered) > 0 {
		// The replica leaves out the checkpoint writes, so its coverage
		// of an uninterrupted job is the share that is not persistence,
		// and the rest of the job's time is the checkpoint layer.
		r.derived["trace.coverage"] = median(covered) / b
		r.derived["routing.checkpoint_s"] = b - median(covered)
	}
	r.scanRate()
	return nil
}

// scanReplica makes, each in a span, the calls that RunJob and
// routecheck make before and during the orbit-reduced scan of
// Strassen's G_k: build the graph, the router (with its Hall
// matching), the adjacency and meta-root indices (which the parallel
// verifier would otherwise build on entry), and the two-worker scan.
// Nothing is checkpointed.
func scanReplica(r *run, rep *span, k int) (*cdag.Graph, *routing.Router, error) {
	var (
		g   *cdag.Graph
		rt  *routing.Router
		st  routing.Stats
		err error
	)
	if err = r.tr.traced(rep, "cdag.new", func(*span) error {
		g, err = cdag.New(catalog("strassen"), k)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err = r.tr.traced(rep, "routing.router", func(*span) error {
		rt, err = routing.NewRouter(g)
		return err
	}); err != nil {
		return nil, nil, err
	}
	rt.OrbitReduction = true
	r.tr.traced(rep, "cdag.index", func(*span) error {
		g.EnsureAdjacencyIndex()
		g.EnsureMetaRootIndex()
		return nil
	})
	if err = r.tr.traced(rep, "routing.scan", func(sp *span) error {
		a0 := heapAllocs()
		st, err = rt.VerifyFullRoutingParallel(2)
		sp.set("allocs", heapAllocs()-a0)
		sp.set("paths", st.NumPaths)
		return err
	}); err != nil {
		return nil, nil, err
	}
	r.paths += st.NumPaths
	return g, rt, checkStats(st, k)
}

// scanRate derives routing.scan_paths_per_s from the scan spans.
func (r *run) scanRate() {
	spans, _ := r.tr.finished()
	var pps []float64
	for _, s := range spans {
		if p, err := strconv.ParseFloat(s.attrs["paths"], 64); s.name == "routing.scan" && err == nil {
			pps = append(pps, p/s.dur().Seconds())
		}
	}
	r.derived["routing.scan_paths_per_s"] = median(pps)
}

// resumeReplica pauses a real job at half, loads its checkpoint, and
// resumes it, each in a span.
func resumeReplica(r *run, rep *span, path string) error {
	if err := r.tr.traced(rep, "routing.run_job", func(sp *span) error {
		sp.set("outcome", "paused")
		return r.pausedJob(path)
	}); err != nil {
		return err
	}
	if err := r.tr.traced(rep, "routing.checkpoint_load", func(sp *span) error {
		c, err := routing.LoadCheckpoint(path)
		if err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		if c.DoneCount <= 0 || c.DoneCount >= c.NumShards {
			return fmt.Errorf("paused checkpoint holds %d of %d shards", c.DoneCount, c.NumShards)
		}
		sp.set("shards", c.NumShards)
		sp.set("done", c.DoneCount)
		// Each completed shard rewrites the whole file.
		sp.set("bytes_written", fi.Size()*c.NumShards)
		return nil
	}); err != nil {
		return err
	}
	return r.tr.traced(rep, "routing.run_job", func(sp *span) error {
		sp.set("outcome", "resumed")
		return r.resumedJob(path)
	})
}
