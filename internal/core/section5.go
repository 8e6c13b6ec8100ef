package core

// The Section 5 argument — the paper's simpler rederivation of the
// Strassen bound — as a second, independent certifier. Differences from
// the general Section 6 argument implemented in Certify:
//
//   - only vertices on decoding rank k are counted (|S̄| = 66M), with no
//     input-disjointness selection (decoding has no copying, Lemma 2);
//   - the routing lives in the decoding graph D_k alone (Claim 1's
//     zag routing), so the base decoding graph must be connected;
//   - the boundary is the plain vertex boundary δ(S) of Definition 1
//     and Equation (1) asserts |δ(S)| ≥ |S̄|/22, giving ≥ 3M and hence
//     M I/Os per segment.
//
// CertifySection5 machine-checks Equation (1) on every complete segment
// of a schedule and returns the certified bound. It applies to any
// algorithm with a connected base decoding graph (Strassen, Winograd,
// Laderman, …) and correctly refuses the disconnected cases, which is
// the precise gap Section 6 was written to close.

import (
	"fmt"

	"pathrouting/internal/cdag"
	"pathrouting/internal/pebble"
	"pathrouting/internal/routing"
)

// Section5Certificate is the outcome of the Section 5 argument.
type Section5Certificate struct {
	// K and M echo the parameters; Target = 66M.
	K      int
	M      int64
	Target int64
	// CompleteSegments met the quota.
	CompleteSegments int
	// MinDeltaRatio is the minimum |δ(S)| / |S̄| over complete segments
	// (Equation (1) asserts ≥ 1/22).
	MinDeltaRatio float64
	// CertifiedIO = CompleteSegments · M.
	CertifiedIO int64
}

// CertifySection5 runs the Section 5 argument on the schedule. The
// quota is 66M and requires aᴷ ≥ 132M (the paper's k = ⌈log_a 132M⌉ is
// the smallest admissible K). It returns an error for out-of-range
// parameters, disconnected base decoding graphs, or — which would
// falsify the paper — an Equation (1) violation.
func CertifySection5(g *cdag.Graph, sched []cdag.V, k int, m int64) (*Section5Certificate, error) {
	if k < 1 || k > g.R {
		return nil, fmt.Errorf("core: section 5: K = %d out of range [1,%d]", k, g.R)
	}
	if m < 1 {
		return nil, fmt.Errorf("core: section 5: M = %d < 1", m)
	}
	aK := int64(1)
	for i := 0; i < k; i++ {
		aK *= int64(g.A())
	}
	if aK < 132*m {
		return nil, fmt.Errorf("core: section 5: aᴷ = %d < 132M = %d", aK, 132*m)
	}
	// Claim 1 requires a connected base decoding graph; constructing
	// the router performs exactly that check.
	gk, err := cdag.New(g.Alg, k)
	if err != nil {
		return nil, err
	}
	if _, err := routing.NewDecodingRouter(gk); err != nil {
		return nil, fmt.Errorf("core: section 5 inapplicable: %w", err)
	}

	cert := &Section5Certificate{K: k, M: m, Target: 66 * m, MinDeltaRatio: 1e18}
	decBase := g.LayerBase(cdag.Dec, k)
	// Total counted vertices: aᵏ·b^(r−k); must cover at least one
	// segment.
	layer := g.LayerSize(cdag.Dec, k)
	if int64(layer) < cert.Target {
		return nil, fmt.Errorf("core: section 5: only %d counted vertices for quota %d", layer, cert.Target)
	}

	// Cut segments and check each as it closes: decoding vertices are
	// never copies (Lemma 2), so counting is one per vertex — no
	// meta-weighting needed.
	ev := pebble.NewSegmentEvaluator(g)
	start, acc := 0, int64(0)
	for pos, v := range sched {
		if uint32(v-decBase) < uint32(layer) {
			acc++
		}
		if acc < cert.Target {
			continue
		}
		// S is still meta-closed (the paper's convention), but S̄ only
		// counts decoding-rank-k vertices.
		ev.Close(sched[start : pos+1])
		b := segmentBoundary(ev)
		ratio := float64(b.Delta()) / float64(acc)
		if ratio < cert.MinDeltaRatio {
			cert.MinDeltaRatio = ratio
		}
		if 22*b.Delta() < acc {
			return cert, fmt.Errorf(
				"core: Equation (1) fails on segment [%d,%d): |δ(S)| = %d < |S̄|/22 = %d/22",
				start, pos+1, b.Delta(), acc)
		}
		if b.Delta() < 3*m {
			return cert, fmt.Errorf(
				"core: section 5 segment [%d,%d): |δ(S)| = %d < 3M", start, pos+1, b.Delta())
		}
		cert.CompleteSegments++
		start, acc = pos+1, 0
	}
	cert.CertifiedIO = int64(cert.CompleteSegments) * m
	return cert, nil
}
