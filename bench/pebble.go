package main

// pebble-r5: the E1/E14 path with no routing at all. Each pass builds
// Strassen's G_5, its recursive DFS schedule and a random topological
// schedule drawn from the seed (the set-up), then simulates the DFS
// schedule at M = 48 under MIN, LRU and FIFO and the random one under
// MIN and LRU, runs the stack-distance pass, and certifies the DFS
// schedule's segments (K = 2, relaxed target 8). A pass at r = 6 takes
// over 3 s here, too long for enough passes per run.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"pathrouting/internal/cdag"
	"pathrouting/internal/core"
	"pathrouting/internal/pebble"
	"pathrouting/internal/schedule"
)

const pebbleM = 48

// pebblePass is one pass; rep is its traced span (nil untraced).
// randomRef holds the first pass's random-schedule results, which
// every later pass must repeat exactly.
type pebblePass struct {
	r         *run
	depth     int
	randomRef *[2]pebble.Result
}

func (p *pebblePass) run(rep *span) (setup, work float64, err error) {
	tr := p.r.tr
	want := goldenPebble[p.depth]
	start := time.Now()
	var g *cdag.Graph
	var dfs, rnd []cdag.V
	if err = tr.traced(rep, "cdag.new", func(*span) error {
		g, err = cdag.New(catalog("strassen"), p.depth)
		return err
	}); err != nil {
		return 0, 0, err
	}
	tr.traced(rep, "schedule.dfs", func(*span) error {
		dfs = schedule.RecursiveDFS(g)
		return nil
	})
	if err = tr.traced(rep, "schedule.random", func(*span) error {
		rnd, err = schedule.RandomTopological(g, rand.New(rand.NewSource(p.r.seed)))
		return err
	}); err != nil {
		return 0, 0, err
	}
	setup = time.Since(start).Seconds()

	start = time.Now()
	simulate := func(name string, sched []cdag.V, policy pebble.Policy) (res pebble.Result, err error) {
		err = tr.traced(rep, name, func(sp *span) error {
			a0 := heapAllocs()
			res, err = (&pebble.Simulator{G: g, M: pebbleM, P: policy}).Run(sched)
			sp.set("allocs", heapAllocs()-a0)
			return err
		})
		if err == nil && res.Computed != int64(len(sched)) {
			err = fmt.Errorf("%s: computed %d of %d scheduled vertices", name, res.Computed, len(sched))
		}
		return res, err
	}
	for _, c := range []struct {
		name   string
		policy pebble.Policy
	}{{"pebble.run_min", pebble.MIN}, {"pebble.run_lru", pebble.LRU}, {"pebble.run_fifo", pebble.FIFO}} {
		res, err := simulate(c.name, dfs, c.policy)
		if err != nil {
			return 0, 0, err
		}
		if got := [2]int64{res.Reads, res.Writes}; got != want.io[c.policy] {
			return 0, 0, fmt.Errorf("r=%d DFS %v: reads, writes = %v, want %v", p.depth, c.policy, got, want.io[c.policy])
		}
		if res.Computed != want.computed {
			return 0, 0, fmt.Errorf("r=%d DFS %v: computed %d, want %d", p.depth, c.policy, res.Computed, want.computed)
		}
	}
	var random [2]pebble.Result
	for i, c := range []struct {
		name   string
		policy pebble.Policy
	}{{"pebble.run_random_min", pebble.MIN}, {"pebble.run_random_lru", pebble.LRU}} {
		if random[i], err = simulate(c.name, rnd, c.policy); err != nil {
			return 0, 0, err
		}
	}
	if random[0].IO() > random[1].IO() {
		return 0, 0, fmt.Errorf("random schedule: MIN I/O %d > LRU I/O %d", random[0].IO(), random[1].IO())
	}
	if *p.randomRef == ([2]pebble.Result{}) {
		*p.randomRef = random
	} else if random != *p.randomRef {
		return 0, 0, fmt.Errorf("random schedule did not repeat: %+v, first pass %+v", random, *p.randomRef)
	}
	if err = tr.traced(rep, "pebble.stackdist", func(*span) error {
		mc, err := pebble.AnalyzeStackDistances(g, dfs)
		if err != nil {
			return err
		}
		if mc.Accesses != want.accesses || mc.MissesAt(pebbleM) != want.missesAt48 {
			return fmt.Errorf("stack distances: %d accesses, %d misses at M=%d; want %d, %d",
				mc.Accesses, mc.MissesAt(pebbleM), pebbleM, want.accesses, want.missesAt48)
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	if err = tr.traced(rep, "core.certify", func(*span) error {
		cert, err := core.Certify(g, dfs, core.Options{K: 2, RelaxedTarget: 8})
		if err != nil {
			return err
		}
		if cert.CompleteSegments != want.segments || cert.MinDeltaRatio != want.minRatio || cert.CollectionSize != want.collection {
			return fmt.Errorf("certificate: %d segments, min ratio %g, collection %d; want %d, %g, %d",
				cert.CompleteSegments, cert.MinDeltaRatio, cert.CollectionSize, want.segments, want.minRatio, want.collection)
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	return setup, time.Since(start).Seconds(), nil
}

func pebbleR5(r *run) error {
	p := &pebblePass{r: r, depth: 5, randomRef: new([2]pebble.Result)}
	if r.smoke {
		p.depth = 4
	}
	var passes []float64 // set-up included
	cpu0, _ := selfUsage()
	elapsed, n := r.measure(r.budget(), 2, func(int) {
		setup, work, err := p.run(nil)
		if r.op(err) {
			r.setup = append(r.setup, setup)
			r.latency = append(r.latency, work)
			passes = append(passes, setup+work)
		}
	})
	cpu1, rss := selfUsage()
	r.addWindow(elapsed, n)
	r.cpuSec += cpu1 - cpu0
	r.rssMB = append(r.rssMB, rss)
	r.timing("pebble_s", "s", 1, r.latency)
	r.timing("setup_s", "s", 1, r.setup)
	if !r.trace {
		r.note("%-22s %10.1f MB   this process", "peak_rss_mb", median(r.rssMB))
		return nil
	}

	r.measure(r.budget(), 2, func(int) {
		rep := r.tr.begin(r.root, "pass")
		_, _, err := p.run(rep)
		rep.finish()
		r.op(err)
	})
	r.traceRatios("pass", passes)
	spans, _ := r.tr.finished()
	var allocs []float64
	for _, s := range spans {
		if a, err := strconv.ParseFloat(s.attrs["allocs"], 64); err == nil && strings.HasPrefix(s.name, "pebble.run_") {
			allocs = append(allocs, a)
		}
	}
	r.derived["pebble.run_allocs"] = median(allocs)
	return nil
}
