package pebble

// Mattson stack-distance analysis: the classic one-pass computation
// (Mattson et al. 1970) of LRU reuse distances for a reference trace,
// yielding the number of LRU misses for *every* cache size
// simultaneously. The trace of a schedule is the sequence of value
// accesses it performs: each computation reads its parents and creates
// its result. The resulting miss curve is the locality fingerprint of
// the schedule — Theorem 1 lower-bounds it for every M at once, and the
// DFS schedule's curve hugs the bound while the rank-by-rank curve
// plateaus at the layer size.

import (
	"fmt"
	"sort"

	"pathrouting/internal/cdag"
)

// MissCurve holds the result of a stack-distance pass.
type MissCurve struct {
	// Accesses is the total number of value accesses in the trace.
	Accesses int64
	// Compulsory is the number of first accesses (cold misses),
	// incurred at every cache size.
	Compulsory int64
	// distHist[d] counts reuse accesses with stack distance exactly d
	// (1-based: d values were touched since the previous access).
	distHist []int64
}

// MissesAt returns the number of LRU misses for a fully-associative
// cache of m values: compulsory misses plus reuses with stack distance
// exceeding m.
func (mc *MissCurve) MissesAt(m int) int64 {
	if m < 0 {
		m = 0
	}
	misses := mc.Compulsory
	for d := m + 1; d < len(mc.distHist); d++ {
		misses += mc.distHist[d]
	}
	return misses
}

// MaxDistance returns the largest observed reuse distance (the cache
// size beyond which only compulsory misses remain).
func (mc *MissCurve) MaxDistance() int {
	for d := len(mc.distHist) - 1; d >= 1; d-- {
		if mc.distHist[d] > 0 {
			return d
		}
	}
	return 0
}

// Distances returns the sorted distinct reuse distances observed —
// the interesting cache sizes where the curve steps.
func (mc *MissCurve) Distances() []int {
	var out []int
	for d := 1; d < len(mc.distHist); d++ {
		if mc.distHist[d] > 0 {
			out = append(out, d)
		}
	}
	sort.Ints(out)
	return out
}

// AnalyzeStackDistances runs the Mattson pass over the access trace of
// the schedule on g. Accesses per scheduled vertex: one read per
// parent, then the creation of the vertex itself (a compulsory miss).
func AnalyzeStackDistances(g *cdag.Graph, sched []cdag.V) (*MissCurve, error) {
	n := g.NumVertices()
	// lastTime[v] = trace position (1-based) of v's most recent access,
	// or 0.
	lastTime := make([]int64, n)
	// Total accesses: one per parent plus one per scheduled vertex.
	var total int64
	for _, v := range sched {
		total += int64(len(g.ParentRow(v))) + 1
	}
	// Every earlier trace position is either the latest access of its
	// value or stale: its value was accessed again later. So the
	// distinct values touched strictly between t and clock number the
	// positions there minus the stale ones, and the tree need only
	// mark stale positions: a first access costs no tree walk, and a
	// reuse one prefix sum and one update.
	bit := newBIT(int(total))
	mc := &MissCurve{distHist: make([]int64, 2)}
	clock := int64(0)
	var stale int64
	access := func(v cdag.V) {
		clock++
		mc.Accesses++
		t := lastTime[v]
		lastTime[v] = clock
		if t == 0 {
			mc.Compulsory++
			return
		}
		// Stale positions in (t, clock) are stale - prefix(t), since t
		// itself is not stale yet; v itself re-enters at the top, +1.
		d := int(clock - t - stale + bit.prefix(int(t)))
		for d >= len(mc.distHist) {
			mc.distHist = append(mc.distHist, 0)
		}
		mc.distHist[d]++
		bit.add(int(t), 1)
		stale++
	}

	computed := make([]bool, n)
	for _, v := range sched {
		if computed[v] {
			return nil, fmt.Errorf("pebble: stack distance trace recomputes %s", g.Label(v))
		}
		for _, p := range g.ParentRow(v) {
			access(p)
		}
		access(v)
		computed[v] = true
	}
	return mc, nil
}

// bitTree is a Fenwick tree over trace positions.
type bitTree struct {
	n    int
	tree []int64
}

func newBIT(n int) *bitTree { return &bitTree{n: n, tree: make([]int64, n+1)} }

func (b *bitTree) add(i int, delta int64) {
	for ; i <= b.n; i += i & (-i) {
		b.tree[i] += delta
	}
}

// prefix returns the sum of positions 1..i.
func (b *bitTree) prefix(i int) int64 {
	var s int64
	for ; i > 0; i -= i & (-i) {
		s += b.tree[i]
	}
	return s
}
