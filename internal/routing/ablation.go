package routing

// Ablation: what happens to the routing bounds when the Hall matching
// of Theorem 3 is replaced by a naive greedy assignment? The paper's
// proof of Lemma 3 depends on the capacity-n₀ matching to keep
// middle-layer loads at n₀ per product; a first-fit assignment ignores
// the capacity and can pile Θ(n₀²) dependencies onto popular products,
// breaking the 2n₀ᵏ bound at depth. This file builds the greedy variant
// so the effect can be measured (cmd/paperrepro, bench_test.go).

import (
	"fmt"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// GreedyBaseMatching assigns every guaranteed base dependency to its
// first adjacent product, with no capacity constraint — the strawman
// the Hall matching is compared against.
func GreedyBaseMatching(alg *bilinear.Algorithm) (*BaseMatching, error) {
	bm := &BaseMatching{Alg: alg}
	a := alg.A()
	for _, side := range []bilinear.Side{bilinear.SideA, bilinear.SideB} {
		match := make([]int, a*a)
		for i := range match {
			match[i] = -1
		}
		for _, d := range GuaranteedBaseDeps(alg, side) {
			ts := DepProducts(alg, side, d[0], d[1])
			if len(ts) == 0 {
				return nil, fmt.Errorf("routing: %s: dependency %v has no admissible product", alg.Name, d)
			}
			match[d[0]*a+d[1]] = ts[0]
		}
		if side == bilinear.SideA {
			bm.matchA = match
		} else {
			bm.matchB = match
		}
	}
	return bm, nil
}

// MaxProductLoad returns the largest number of dependencies assigned to
// one product by either side matching (the quantity the Hall matching
// caps at n₀).
func (bm *BaseMatching) MaxProductLoad() int {
	maxUse := 0
	for _, match := range [][]int{bm.matchA, bm.matchB} {
		use := make(map[int]int)
		for _, t := range match {
			if t >= 0 {
				use[t]++
				if use[t] > maxUse {
					maxUse = use[t]
				}
			}
		}
	}
	return maxUse
}

// CompareMatchings builds both the Hall matching and the greedy
// matching for the algorithm and reports the max vertex hit counts of
// the resulting full routings on G_k, together with the Theorem 2
// bound. It quantifies how much the capacity constraint buys.
type MatchingComparison struct {
	Alg          string
	K            int
	Bound        int64
	HallMaxHits  int64
	HallLoad     int
	GreedyOK     bool // greedy stayed within the Theorem 2 bound
	GreedyHits   int64
	GreedyLoad   int
	GreedyFailed string // non-empty if the greedy routing itself errored
}

// CompareMatchings runs the ablation on G_k of the algorithm.
func CompareMatchings(alg *bilinear.Algorithm, k int) (MatchingComparison, error) {
	out := MatchingComparison{Alg: alg.Name, K: k}
	g, err := cdag.New(alg, k)
	if err != nil {
		return out, err
	}
	hallBM, err := NewBaseMatching(alg)
	if err != nil {
		return out, err
	}
	hallRouter, err := NewRouterWithMatching(g, hallBM)
	if err != nil {
		return out, err
	}
	hallStats, err := hallRouter.VerifyFullRouting()
	if err != nil {
		return out, err
	}
	out.Bound = hallStats.Bound
	out.HallMaxHits = hallStats.MaxVertexHits
	out.HallLoad = hallBM.MaxProductLoad()

	greedyBM, err := GreedyBaseMatching(alg)
	if err != nil {
		out.GreedyFailed = err.Error()
		return out, nil
	}
	out.GreedyLoad = greedyBM.MaxProductLoad()
	greedyRouter, err := NewRouterWithMatching(g, greedyBM)
	if err != nil {
		out.GreedyFailed = err.Error()
		return out, nil
	}
	greedyStats, err := greedyRouter.VerifyFullRouting()
	out.GreedyHits = greedyStats.MaxVertexHits
	out.GreedyOK = err == nil
	if err != nil {
		out.GreedyFailed = err.Error()
	}
	return out, nil
}
