package routing

// This file implements the simpler routing of Section 5 (Claim 1): a
// routing between the inputs (products) and outputs of the decoding
// graph D_k alone, feasible whenever the base decoding graph D₁ is
// connected. Where the ideal chain would use an edge t→o that D₁ lacks,
// the path "zags" through D₁'s component — alternately stepping up to an
// output and back down to a product — exactly as depicted in the paper's
// Figures 3 and 4. Claim 1 bounds the resulting vertex hits by
// |V(D₁)|·bᵏ (11·7ᵏ for Strassen).

import (
	"fmt"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// DecodingRouter routes paths inside the decoding graph of a standalone
// G_k built by cdag.New.
type DecodingRouter struct {
	// G is the graph whose decoding layers are routed.
	G *cdag.Graph

	k    int
	a, b int
	powA []int64
	powB []int64
	// zag[t*a+o] is the alternating base sequence t = x₀, o₁, x₁, …, o
	// (products at even positions, outputs at odd positions) realizing a
	// path from product t to output o within D₁.
	zag [][]int
}

// NewDecodingRouter precomputes base zag sequences by BFS in the
// bipartite base decoding graph. It returns an error when D₁ is
// disconnected — the case (e.g. the classical algorithm, or
// Strassen⊗classical) where the Section 5 argument fails and the full
// Section 6 machinery is required.
func NewDecodingRouter(g *cdag.Graph) (*DecodingRouter, error) {
	alg := g.Alg
	a, b := alg.A(), alg.B()
	dr := &DecodingRouter{G: g, k: g.R, a: a, b: b}
	dr.powA = make([]int64, g.R+1)
	dr.powB = make([]int64, g.R+1)
	dr.powA[0], dr.powB[0] = 1, 1
	for i := 1; i <= g.R; i++ {
		dr.powA[i] = dr.powA[i-1] * int64(a)
		dr.powB[i] = dr.powB[i-1] * int64(b)
	}

	// Bipartite BFS from every product. Nodes: products 0..b-1 and
	// outputs b..b+a-1.
	adjT := make([][]int, b) // product -> outputs
	adjO := make([][]int, a) // output -> products
	for o := 0; o < a; o++ {
		for t := 0; t < b; t++ {
			if !alg.W[o][t].IsZero() {
				adjT[t] = append(adjT[t], o)
				adjO[o] = append(adjO[o], t)
			}
		}
	}
	dr.zag = make([][]int, a*b)
	for t0 := 0; t0 < b; t0++ {
		parent := make([]int, a+b)
		for i := range parent {
			parent[i] = -2
		}
		parent[t0] = -1
		queue := []int{t0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if u < b {
				for _, o := range adjT[u] {
					if parent[b+o] == -2 {
						parent[b+o] = u
						queue = append(queue, b+o)
					}
				}
			} else {
				for _, t := range adjO[u-b] {
					if parent[t] == -2 {
						parent[t] = u
						queue = append(queue, t)
					}
				}
			}
		}
		for o := 0; o < a; o++ {
			if parent[b+o] == -2 {
				return nil, fmt.Errorf(
					"routing: %s: base decoding graph is disconnected (product %d cannot reach output %d); Section 5 routing inapplicable",
					alg.Name, t0, o)
			}
			// Reconstruct t0 … o.
			var rev []int
			u := b + o
			for u != -1 {
				if u >= b {
					rev = append(rev, u-b)
				} else {
					rev = append(rev, u)
				}
				u = parent[u]
			}
			seq := make([]int, len(rev))
			for i := range rev {
				seq[i] = rev[len(rev)-1-i]
			}
			dr.zag[t0*a+o] = seq
		}
	}
	return dr, nil
}

// AppendPath appends the zag path from product multi-index t to output
// multi-index o through the decoding layers of G_k and returns it. The
// path starts at the product vertex (decoding rank 0) and ends at the
// output (decoding rank k).
func (dr *DecodingRouter) AppendPath(t, o int64, buf []cdag.V) []cdag.V {
	g := dr.G
	buf = append(buf, g.Product(t))
	// Cross boundaries j = 1..k. At boundary j, slot k-j+1 (1-indexed)
	// flips from its product digit to its output digit via the base zag
	// sequence; T's leading digits stay, o's trailing digits accumulate.
	for j := 1; j <= dr.k; j++ {
		tPrefix := t / dr.powB[j] // first k-j product digits
		tDigit := int(t / dr.powB[j-1] % int64(dr.b))
		oDigit := int(o / dr.powA[j-1] % int64(dr.a))
		oSuffix := o % dr.powA[j-1] // already-decoded trailing digits
		seq := dr.zag[tDigit*dr.a+oDigit]
		// seq = x0, o1, x1, ..., oDigit. x's live at rank j-1, o's at
		// rank j. The path is already at (tPrefix, x0 | oSuffix).
		for i := 1; i < len(seq); i++ {
			if i%2 == 1 { // output digit: step up to rank j
				idx := tPrefix*dr.powA[j] + int64(seq[i])*dr.powA[j-1] + oSuffix
				buf = append(buf, g.ID(cdag.Dec, j, idx))
			} else { // product digit: step back down to rank j-1
				idx := (tPrefix*int64(dr.b)+int64(seq[i]))*dr.powA[j-1] + oSuffix
				buf = append(buf, g.ID(cdag.Dec, j-1, idx))
			}
		}
	}
	return buf
}

// VerifyClaim1 enumerates the routing between all bᵏ products and aᵏ
// outputs of D_k and verifies connectivity of every path and the
// Claim 1 hit bound |V(D₁)|·bᵏ per vertex.
func (dr *DecodingRouter) VerifyClaim1() (Stats, error) {
	start := time.Now()
	g := dr.G
	hits := make(hitVec, g.NumVertices())
	st := Stats{Bound: int64(dr.a+dr.b) * dr.powB[dr.k]}
	var buf []cdag.V
	for t := int64(0); t < dr.powB[dr.k]; t++ {
		for o := int64(0); o < dr.powA[dr.k]; o++ {
			buf = dr.AppendPath(t, o, buf[:0])
			st.NumPaths++
			st.TotalHits += int64(len(buf))
			if buf[0] != g.Product(t) || buf[len(buf)-1] != g.Output(o) {
				return st, fmt.Errorf("routing: decoding path endpoints %s..%s",
					g.Label(buf[0]), g.Label(buf[len(buf)-1]))
			}
			for _, v := range buf {
				hits[v]++
			}
		}
	}
	// Adjacency spot check.
	n := int64(0)
	for t := int64(0); t < dr.powB[dr.k]; t++ {
		for o := int64(0); o < dr.powA[dr.k]; o++ {
			n++
			if n%211 != 0 {
				continue
			}
			buf = dr.AppendPath(t, o, buf[:0])
			for i := 0; i+1 < len(buf); i++ {
				if !g.Adjacent(buf[i], buf[i+1]) {
					return st, fmt.Errorf("routing: decoding path disconnected at %s -- %s",
						g.Label(buf[i]), g.Label(buf[i+1]))
				}
			}
		}
	}
	st.MaxVertexHits = hits.max()
	st.MaxMetaHits = st.MaxVertexHits // no copying inside decoding (Lemma 2)
	st.Elapsed = time.Since(start)
	if st.MaxVertexHits > st.Bound {
		return st, fmt.Errorf("routing: %s D_%d: Claim 1 violated: vertex hit %d > %d",
			g.Alg.Name, dr.k, st.MaxVertexHits, st.Bound)
	}
	return st, nil
}

// CountBoundaryCrossing enumerates the full Routing Theorem routing of
// the Router's G_k and counts the paths that cross the boundary of the
// vertex set selected by inS (contain at least one vertex inside and one
// outside). This is the quantity the paper's segment argument lower
// bounds by ½aᵏ·|S̄_i|.
func (r *Router) CountBoundaryCrossing(inS func(cdag.V) bool) int64 {
	var crossing int64
	r.ForEachPairPath(func(side bilinear.Side, in, out int64, path []cdag.V) {
		any, all := false, true
		for _, v := range path {
			if inS(v) {
				any = true
			} else {
				all = false
			}
		}
		if any && !all {
			crossing++
		}
	})
	return crossing
}
