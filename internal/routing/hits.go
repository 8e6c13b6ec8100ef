package routing

// hitVec accumulates per-vertex hit counts for a routing in int64.
//
// Width matters here: the quantities a verifier accumulates explode
// exponentially in k — the full routing has 2a²ᵏ paths of length
// 6k + 4, and a *broken* routing (exactly what verification must
// catch) can concentrate an arbitrary share of those hits on a single
// vertex. A 32-bit counter silently wraps past 2³¹ ≈ 2.1·10⁹,
// reporting a small or negative "maximum" and certifying a bound that
// is violated astronomically. Every verifier hit array therefore uses
// this type; TotalHits alone passes 10⁹ already at Strassen k = 6.

import "pathrouting/internal/cdag"

type hitVec []int64

// bump increments v's counter and returns the new value, so callers
// can track a running peak with `peak = max(peak, h.bump(v))`.
func (h hitVec) bump(v cdag.V) int64 {
	h[v]++
	return h[v]
}

// add increases v's counter by n and returns the new value — the
// weighted form of bump the orbit-reduced scans use to credit a whole
// orbit's worth of hits to a shared-chain vertex at once.
func (h hitVec) add(v cdag.V, n int64) int64 {
	h[v] += n
	return h[v]
}

// max returns the largest counter (0 for an empty vector).
func (h hitVec) max() int64 {
	var m int64
	for _, c := range h {
		if c > m {
			m = c
		}
	}
	return m
}

// merge adds other into h element-wise.
func (h hitVec) merge(other hitVec) {
	for v, c := range other {
		h[v] += c
	}
}

// drain adds other into h element-wise and zeroes other, in one pass:
// the checkpointed engine's merge, which leaves a worker's vectors
// ready for its next shards. Zero entries are skipped, so neither
// vector is written where a worker found nothing.
func (h hitVec) drain(other hitVec) {
	for v, c := range other {
		if c != 0 {
			h[v] += c
			other[v] = 0
		}
	}
}
