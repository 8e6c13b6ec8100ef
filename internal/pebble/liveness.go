package pebble

// Liveness analysis of schedules: how many values must be
// simultaneously resident for a schedule to run without any I/O beyond
// the compulsory reads and writes. The peak live-set size is exactly
// the smallest cache for which the schedule is I/O-free (modulo the
// compulsory traffic), so the profile explains *why* the DFS schedule
// is cache-friendly and the rank-by-rank schedule is not: the former's
// peak scales with the subproblem that fits, the latter's with whole
// layers.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"pathrouting/internal/cdag"
	"pathrouting/internal/schedule"
)

// Liveness reports the live-value profile of a schedule.
type Liveness struct {
	// Peak is the maximum number of simultaneously live values
	// (computed or input values still awaiting a later use, plus the
	// parents and result of the in-flight computation).
	Peak int
	// PeakPosition is the first schedule position achieving Peak.
	PeakPosition int
	// Average is the mean live-set size over schedule positions.
	Average float64
}

// AnalyzeLiveness computes the live-set profile of the schedule on g.
// A value is live from the moment it is computed (or first used, for
// inputs) until its last use as a parent; outputs are live until
// computed (they are then written out). The schedule must be valid
// (see schedule.Validate); behaviour on invalid schedules is undefined.
func AnalyzeLiveness(g *cdag.Graph, sched []cdag.V) (Liveness, error) {
	if err := checkScheduleLen(len(sched)); err != nil {
		return Liveness{}, err
	}
	n := g.NumVertices()
	lastUse := make([]int32, n)
	for i := range lastUse {
		lastUse[i] = -1
	}
	for pos, v := range sched {
		for _, p := range g.ParentRow(v) {
			lastUse[p] = int32(pos)
		}
	}
	// Sweep: maintain the live count.
	live := 0
	lv := Liveness{}
	var sum int64
	firstUse := make([]bool, n)
	for pos, v := range sched {
		// Parents become live at first use if they are inputs (loaded);
		// non-input parents are already live (computed earlier).
		parents := g.ParentRow(v)
		for _, p := range parents {
			if g.IsInput(p) && !firstUse[p] {
				firstUse[p] = true
				live++
			}
		}
		// The result becomes live.
		live++
		if live > lv.Peak {
			lv.Peak = live
			lv.PeakPosition = pos
		}
		sum += int64(live)
		// Values whose last use is this position die now; the computed
		// vertex itself dies immediately if never used again and not an
		// output awaiting write-out (we count the write as death).
		for _, p := range parents {
			if lastUse[p] == int32(pos) {
				live--
			}
		}
		if lastUse[v] < 0 {
			// Never used later: outputs are written and die; a
			// non-output would be useless (cannot happen in G_r).
			live--
		}
	}
	if live != 0 {
		return lv, fmt.Errorf("pebble: liveness sweep ended with %d live values; invalid schedule?", live)
	}
	if len(sched) > 0 {
		lv.Average = float64(sum) / float64(len(sched))
	}
	return lv, nil
}

// BestOfRandom measures the minimum I/O over nTrials random topological
// schedules under MIN replacement — an empirical baseline for the
// I/O-complexity of the graph. The structured DFS schedule beats it
// comfortably (see tests), illustrating that low-I/O schedules are rare
// in schedule space, which is why the paper's lower bound (holding for
// *all* schedules) is the interesting statement.
func BestOfRandom(g *cdag.Graph, m int, nTrials int, rng *rand.Rand) (int64, error) {
	if nTrials < 1 {
		return 0, fmt.Errorf("pebble: BestOfRandom nTrials = %d", nTrials)
	}
	best := int64(-1)
	for i := 0; i < nTrials; i++ {
		sched, err := schedule.RandomTopological(g, rng)
		if err != nil {
			return 0, err
		}
		res, err := (&Simulator{G: g, M: m, P: MIN}).Run(sched)
		if err != nil {
			return 0, err
		}
		if best < 0 || res.IO() < best {
			best = res.IO()
		}
	}
	return best, nil
}

// SweepResult pairs a cache size with its measured I/O.
type SweepResult struct {
	M  int
	IO int64
	// Err is non-nil when the cache was infeasible for the graph.
	Err error
}

// SweepM simulates the schedule at every cache size concurrently
// (each size is an independent simulation) and returns results in the
// input order. workers ≤ 0 uses GOMAXPROCS.
func SweepM(g *cdag.Graph, sched []cdag.V, policy Policy, ms []int, workers int) []SweepResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]SweepResult, len(ms))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(i, m int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := (&Simulator{G: g, M: m, P: policy}).Run(sched)
			out[i] = SweepResult{M: m, IO: res.IO(), Err: err}
		}(i, m)
	}
	wg.Wait()
	return out
}
