package core

// The parallel step of Theorem 1: "we apply the above argument to a
// processor that computes an above-average number of vertices of S̄,
// yielding a factor of 1/P". Given an assignment of the computation to
// P processors, the busiest processor (by counted vertices) owns at
// least CountedTotal/P of them; cutting *its* computation sequence into
// segments and bounding each segment's meta-boundary exactly as in the
// sequential argument certifies the words that processor must move —
// a lower bound on the execution's critical-path bandwidth.

import (
	"fmt"

	"pathrouting/internal/cdag"
	"pathrouting/internal/pebble"
)

// ParallelCertificate reports the executable parallel argument.
type ParallelCertificate struct {
	// P is the processor count of the assignment.
	P int
	// BusiestProc is the processor the argument was applied to.
	BusiestProc int
	// BusiestCounted is its number of counted vertices (≥ total/P).
	BusiestCounted int64
	// CompleteSegments and MinDeltaRatio are as in the sequential
	// certificate, over the busiest processor's own sequence.
	CompleteSegments int
	MinDeltaRatio    float64
	// CertifiedWords = CompleteSegments · M: words the processor must
	// move, hence a critical-path bandwidth lower bound.
	CertifiedWords int64
}

// CertifyParallel runs the parallel argument. owner[v] gives each
// vertex's processor (inputs may be owned arbitrarily); sched is the
// global topological order (each processor computes its vertices in
// this induced order, which any legal parallel execution refines). The
// segment parameters follow Certify: quota 36M over counted vertices of
// the busiest processor, with the relaxed-target variant available via
// relaxedTarget > 0.
func CertifyParallel(g *cdag.Graph, sched []cdag.V, owner []int32, p int, k int, m int64, relaxedTarget int64) (*ParallelCertificate, error) {
	if p < 1 {
		return nil, fmt.Errorf("core: parallel: P = %d", p)
	}
	if len(owner) != g.NumVertices() {
		return nil, fmt.Errorf("core: parallel: owner table has %d entries for %d vertices", len(owner), g.NumVertices())
	}
	if k < 1 || k > g.R {
		return nil, fmt.Errorf("core: parallel: K = %d out of range", k)
	}
	aK := int64(1)
	for i := 0; i < k; i++ {
		aK *= int64(g.A())
	}
	var target int64
	relaxed := relaxedTarget > 0
	if relaxed {
		target = relaxedTarget
		if target > aK/2 {
			return nil, fmt.Errorf("core: parallel: relaxed target %d > aᴷ/2", target)
		}
	} else {
		if m < 1 {
			return nil, fmt.Errorf("core: parallel: M = %d", m)
		}
		if aK < 72*m {
			return nil, fmt.Errorf("core: parallel: aᴷ = %d < 72M", aK)
		}
		target = 36 * m
	}

	// Counted weights exactly as in the sequential argument.
	collection := g.InputDisjointCollection(k)
	if len(collection) == 0 {
		return nil, fmt.Errorf("core: parallel: no input-disjoint subcomputations")
	}
	sg := newSegmenter(g, k, collection)

	// Per-processor counted totals (counted vertex charged to the
	// processor computing it; meta members may be spread — charge the
	// root's owner, the paper's value-level accounting).
	perProc := make([]int64, p)
	for root, w := range sg.weight {
		if w == 0 {
			continue
		}
		o := owner[root]
		if int(o) >= p || o < 0 {
			return nil, fmt.Errorf("core: parallel: owner %d out of range", o)
		}
		perProc[o] += int64(w)
	}
	busiest, best := 0, int64(-1)
	var total int64
	for proc, c := range perProc {
		total += c
		if c > best {
			best = c
			busiest = proc
		}
	}
	if best*int64(p) < total {
		return nil, fmt.Errorf("core: parallel: busiest processor below average — accounting bug")
	}
	cert := &ParallelCertificate{P: p, BusiestProc: busiest, BusiestCounted: best, MinDeltaRatio: 1e18}

	// The busiest processor's own computation sequence.
	nMine := 0
	for _, v := range sched {
		if owner[v] == int32(busiest) {
			nMine++
		}
	}
	mine := make([]cdag.V, 0, nMine)
	for _, v := range sched {
		if owner[v] == int32(busiest) {
			mine = append(mine, v)
		}
	}
	// Segment it by counted quota and bound each segment's meta
	// boundary: vertices the processor reads from others, writes to
	// others, or shares across segment boundaries all cross the network
	// or its local memory; δ′(S′) − 2M of them are words moved.
	ev := pebble.NewSegmentEvaluator(g)
	err := sg.cut(mine, target, func(start, end int, _ int64) error {
		ev.Close(mine[start:end])
		b := segmentBoundary(ev)
		ratio := float64(b.DeltaMeta) / float64(target)
		if ratio < cert.MinDeltaRatio {
			cert.MinDeltaRatio = ratio
		}
		if 12*b.DeltaMeta < target {
			return fmt.Errorf("core: parallel Equation (2) fails on segment [%d,%d)", start, end)
		}
		cert.CompleteSegments++
		return nil
	})
	if err != nil {
		return cert, err
	}
	if !relaxed {
		cert.CertifiedWords = int64(cert.CompleteSegments) * m
	}
	return cert, nil
}
