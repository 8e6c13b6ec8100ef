package cdag

// This file implements Fact 1 of the paper: the middle 2(k+1) levels of
// G_r (encoding ranks r-k..r and decoding ranks 0..k) consist of b^(r-k)
// vertex-disjoint copies of G_k, one per length-(r-k) product prefix.
// It provides the prefix partition, an isomorphism embedding a standalone
// G_k into the i-th copy inside G_r, and the constructive content of
// Lemma 1: selecting a large collection of mutually input-disjoint
// subcomputations.

import (
	"fmt"
	"sort"
)

// Subcomputation returns the index i ∈ [0, b^(r-k)) of the copy of G_k
// containing v in the middle 2(k+1) levels of G_r, or -1 when v lies
// outside those levels (encoding rank < r-k or decoding rank > k).
func (g *Graph) Subcomputation(v V, k int) int64 {
	if k < 0 || k > g.R {
		panic(fmt.Errorf("cdag: Subcomputation k = %d out of range [0,%d]", k, g.R))
	}
	kind, rank, idx := g.Locate(v)
	switch kind {
	case EncA, EncB:
		if rank < g.R-k {
			return -1
		}
		// T has length rank; the copy index is its first r-k digits.
		// idx = T·a^(r-rank) + I, so strip the suffix then the last
		// rank-(r-k) product digits.
		t := idx / g.powA[g.R-rank]
		return t / g.powB[rank-(g.R-k)]
	default:
		if rank > k {
			return -1
		}
		// T has length r-rank ≥ r-k; first r-k digits are the index.
		t := idx / g.powA[rank]
		return t / g.powB[k-rank]
	}
}

// Embed maps a vertex of the standalone graph gk (which must be built
// from the same algorithm with gk.R = k ≤ g.R) to the corresponding
// vertex of the copy G_k^prefix inside g. The inverse is Project.
func (g *Graph) Embed(gk *Graph, v V, prefix int64) V {
	k := gk.R
	if gk.Alg != g.Alg && gk.Alg.Name != g.Alg.Name {
		panic(fmt.Errorf("cdag: Embed across algorithms %s vs %s", gk.Alg.Name, g.Alg.Name))
	}
	if k > g.R {
		panic(fmt.Errorf("cdag: Embed k = %d > r = %d", k, g.R))
	}
	if prefix < 0 || prefix >= g.powB[g.R-k] {
		panic(fmt.Errorf("cdag: Embed prefix %d out of range [0,%d)", prefix, g.powB[g.R-k]))
	}
	kind, rank, idx := gk.Locate(v)
	switch kind {
	case EncA, EncB:
		// Local label (T' len rank | I' len k-rank) maps to global
		// (prefix·T' | I') at rank rank + (r-k).
		tLocal := idx / gk.powA[k-rank]
		suffix := idx % gk.powA[k-rank]
		t := prefix*g.powB[rank] + tLocal
		return g.ID(kind, rank+(g.R-k), t*g.powA[k-rank]+suffix)
	default:
		// Local label (T' len k-rank | O' len rank) maps to global
		// (prefix·T' | O') at the same decoding rank.
		tLocal := idx / gk.powA[rank]
		suffix := idx % gk.powA[rank]
		t := prefix*g.powB[k-rank] + tLocal
		return g.ID(Dec, rank, t*g.powA[rank]+suffix)
	}
}

// Project maps a vertex of g lying in the middle 2(k+1) levels to the
// pair (prefix, local vertex in a standalone G_k). It panics if v lies
// outside those levels.
func (g *Graph) Project(gk *Graph, v V) (int64, V) {
	k := gk.R
	prefix := g.Subcomputation(v, k)
	if prefix < 0 {
		panic(fmt.Errorf("cdag: Project: vertex %d outside middle levels for k=%d", v, k))
	}
	kind, rank, idx := g.Locate(v)
	switch kind {
	case EncA, EncB:
		localRank := rank - (g.R - k)
		t := idx / g.powA[g.R-rank]
		suffix := idx % g.powA[g.R-rank]
		tLocal := t % g.powB[localRank]
		return prefix, gk.ID(kind, localRank, tLocal*gk.powA[k-localRank]+suffix)
	default:
		t := idx / g.powA[rank]
		suffix := idx % g.powA[rank]
		tLocal := t % g.powB[k-rank]
		return prefix, gk.ID(Dec, rank, tLocal*gk.powA[rank]+suffix)
	}
}

// SubInputs returns the input vertices of the copy G_k^prefix inside g:
// the encoding vertices of both operands at rank r-k with the given
// product prefix, in index order (first all of A's, then all of B's).
func (g *Graph) SubInputs(prefix int64, k int) []V {
	out := make([]V, 0, 2*g.powA[k])
	for _, kind := range []Kind{EncA, EncB} {
		for s := int64(0); s < g.powA[k]; s++ {
			out = append(out, g.ID(kind, g.R-k, prefix*g.powA[k]+s))
		}
	}
	return out
}

// SubOutputs returns the output vertices of the copy G_k^prefix inside
// g: the decoding vertices at rank k with the given product prefix.
func (g *Graph) SubOutputs(prefix int64, k int) []V {
	out := make([]V, 0, g.powA[k])
	for s := int64(0); s < g.powA[k]; s++ {
		out = append(out, g.ID(Dec, k, prefix*g.powA[k]+s))
	}
	return out
}

// InputMetaRoots returns the sorted, deduplicated meta-vertex roots of
// the inputs of G_k^prefix. Two subcomputations are input-disjoint
// (Definition in Section 6 of the paper) iff these sets are disjoint.
func (g *Graph) InputMetaRoots(prefix int64, k int) []V {
	ins := g.SubInputs(prefix, k)
	roots := make([]V, len(ins))
	for i, v := range ins {
		roots[i] = g.MetaRoot(v)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	out := roots[:0]
	var last V = -1
	for _, r := range roots {
		if r != last {
			out = append(out, r)
			last = r
		}
	}
	return out
}

// InputDisjointCollection greedily selects mutually input-disjoint
// subcomputations G_k^i (the constructive content of Lemma 1) and
// returns their prefix indices in increasing order. Lemma 1 guarantees
// that at least a 1/b² fraction can be selected whenever neither
// encoding graph consists entirely of duplicated vertices; the greedy
// selection typically does much better.
//
// The selection reads the dense meta-root table and marks taken roots
// in a dense table, so its allocation count does not depend on r; the
// disjointness test is InputMetaRoots' (a clash on any input root).
func (g *Graph) InputDisjointCollection(k int) []int64 {
	nSub := g.powB[g.R-k]
	roots := g.MetaRoots()
	taken := make([]bool, g.total)
	picked := make([]int64, 0, nSub)
	nIn := g.powA[k]
	baseA, baseB := g.offEncA[g.R-k], g.offEncB[g.R-k]
	clash := func(p int64) bool {
		for s := p * nIn; s < (p+1)*nIn; s++ {
			if taken[roots[baseA+s]] || taken[roots[baseB+s]] {
				return true
			}
		}
		return false
	}
	for p := int64(0); p < nSub; p++ {
		if clash(p) {
			continue
		}
		for s := p * nIn; s < (p+1)*nIn; s++ {
			taken[roots[baseA+s]] = true
			taken[roots[baseB+s]] = true
		}
		picked = append(picked, p)
	}
	return picked
}

// CountedRanks reports whether v lies on one of the ranks counted by the
// paper's segment argument for parameter k: rank k of the decoding graph
// or rank r-k of either encoding graph.
func (g *Graph) CountedRanks(v V, k int) bool {
	kind, rank, _ := g.Locate(v)
	if kind == Dec {
		return rank == k
	}
	return rank == g.R-k
}
