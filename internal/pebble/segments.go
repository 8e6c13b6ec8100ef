package pebble

// This file implements Definition 1 of the paper: for a set S of
// consecutively-computed vertices, R(S) is the set of vertices outside S
// read during S's computation, W(S) the vertices of S that must survive
// S (written unless they stay cached), δ(S) their disjoint union, and
// δ'(S') the analogous boundary over meta-vertices after closing S under
// meta-vertex membership. These quantities drive the paper's segment
// argument: each segment's I/O is at least |δ'(S')| − 2M.
//
// SegmentEvaluator is the production path: dense tables built once per
// certification, reused by every segment. MetaClosure and
// ComputeBoundary build maps per segment; they stay as the reference
// the evaluator is tested against and for rendering a single segment
// (viz.SegmentDOT).

import "pathrouting/internal/cdag"

// Set is a vertex set with O(1) membership.
type Set map[cdag.V]struct{}

// NewSet builds a Set from a slice.
func NewSet(vs []cdag.V) Set {
	s := make(Set, len(vs))
	for _, v := range vs {
		s[v] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s Set) Has(v cdag.V) bool {
	_, ok := s[v]
	return ok
}

// MetaClosure returns the closure of vs under meta-vertex membership:
// whenever any vertex of a meta-vertex is included, all of its members
// are (the paper's convention "when v ∈ S, every vertex in the same
// meta-vertex is also in S").
func MetaClosure(g *cdag.Graph, vs []cdag.V) Set {
	roots := make(map[cdag.V]struct{})
	for _, v := range vs {
		roots[g.MetaRoot(v)] = struct{}{}
	}
	s := make(Set, 2*len(vs))
	for root := range roots {
		for _, m := range g.MetaMembers(root) {
			s[m] = struct{}{}
		}
	}
	return s
}

// Boundary holds the Definition 1 quantities for one segment.
type Boundary struct {
	// R is |R(S)|: vertices outside S with an edge into S.
	R int64
	// W is |W(S)|: vertices of S with an edge leaving S.
	W int64
	// DeltaMeta is |δ'(S')|: meta-vertices outside S' adjacent to S'.
	DeltaMeta int64
}

// Delta returns |δ(S)| = |R(S)| + |W(S)| (the two sets are disjoint).
func (b Boundary) Delta() int64 { return b.R + b.W }

// ComputeBoundary evaluates Definition 1 for the (already meta-closed)
// set s.
func ComputeBoundary(g *cdag.Graph, s Set) Boundary {
	var b Boundary
	var buf []cdag.Edge
	rSeen := make(Set)
	sRoots := make(map[cdag.V]struct{})
	for v := range s {
		sRoots[g.MetaRoot(v)] = struct{}{}
	}
	deltaRoots := make(map[cdag.V]struct{})
	for v := range s {
		wrote := false
		buf = g.AppendParents(v, buf[:0])
		for _, e := range buf {
			if !s.Has(e.To) {
				if !rSeen.Has(e.To) {
					rSeen[e.To] = struct{}{}
					b.R++
				}
				if root := g.MetaRoot(e.To); !hasRoot(sRoots, root) {
					deltaRoots[root] = struct{}{}
				}
			}
		}
		buf = g.AppendChildren(v, buf[:0])
		for _, e := range buf {
			if !s.Has(e.To) {
				wrote = true
				if root := g.MetaRoot(e.To); !hasRoot(sRoots, root) {
					deltaRoots[root] = struct{}{}
				}
			}
		}
		if wrote {
			b.W++
		}
	}
	b.DeltaMeta = int64(len(deltaRoots))
	return b
}

func hasRoot(roots map[cdag.V]struct{}, r cdag.V) bool {
	_, ok := roots[r]
	return ok
}

// SegmentEvaluator computes meta-closures and Definition 1 boundaries
// of many segments of one graph. It holds the meta-member CSR (every
// meta-vertex's members, by a counting sort of g.MetaRoots()) and
// uint32 epoch stamps over vertex IDs for S′, R(S) and δ′: each Close
// and each Boundary starts a new epoch instead of clearing a table.
// Once built, Close, Has and Boundary allocate nothing beyond growing
// two scratch buffers, to the largest segment and the largest
// out-degree. A SegmentEvaluator is not safe for concurrent use.
type SegmentEvaluator struct {
	g      *cdag.Graph
	roots  []cdag.V // roots[v] = g.MetaRoot(v)
	memPtr []int32  // members of root r: memNbr[memPtr[r]:memPtr[r+1]]
	memNbr []cdag.V

	// inS[v] == sEpoch ⇔ v ∈ S′. S′ is meta-closed, so a root is one of
	// S′'s roots exactly when it is itself in S′: no separate table.
	inS    []uint32
	sEpoch uint32
	set    []cdag.V // S′, in closure order

	// inR[v] == bEpoch ⇔ v counted in R(S); inDelta[r] == bEpoch ⇔
	// root r counted in δ′(S′).
	inR, inDelta []uint32
	bEpoch       uint32

	buf []cdag.Edge // AppendChildren scratch
}

// NewSegmentEvaluator builds the evaluator's tables for g: five
// NumVertices-long int32 arrays besides g's own meta-root table.
func NewSegmentEvaluator(g *cdag.Graph) *SegmentEvaluator {
	roots := g.MetaRoots()
	n := len(roots)
	ptr := make([]int32, n+1)
	for _, r := range roots {
		ptr[r+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	// Fill with ptr[r] as r's cursor, which leaves it at r's end; then
	// shift the ends back into starts.
	nbr := make([]cdag.V, n)
	for v, r := range roots {
		nbr[ptr[r]] = cdag.V(v)
		ptr[r]++
	}
	copy(ptr[1:], ptr[:n])
	ptr[0] = 0
	return &SegmentEvaluator{
		g: g, roots: roots, memPtr: ptr, memNbr: nbr,
		inS: make([]uint32, n), sEpoch: 1,
		inR: make([]uint32, n), inDelta: make([]uint32, n), bEpoch: 1,
	}
}

// nextEpoch advances an epoch counter. When it wraps it clears the
// tables it stamps, so a stamp from 2³² epochs ago can never match.
func nextEpoch(epoch *uint32, tables ...[]uint32) uint32 {
	if *epoch++; *epoch == 0 {
		for _, t := range tables {
			clear(t)
		}
		*epoch = 1
	}
	return *epoch
}

// Close makes S′, the closure of vs under meta-vertex membership (as
// MetaClosure computes it), the evaluator's current segment.
func (e *SegmentEvaluator) Close(vs []cdag.V) {
	ep := nextEpoch(&e.sEpoch, e.inS)
	e.set = e.set[:0]
	for _, v := range vs {
		r := e.roots[v]
		if e.inS[r] == ep {
			continue
		}
		for _, m := range e.memNbr[e.memPtr[r]:e.memPtr[r+1]] {
			e.inS[m] = ep
			e.set = append(e.set, m)
		}
	}
}

// Has reports whether v is in the current segment S′.
func (e *SegmentEvaluator) Has(v cdag.V) bool { return e.inS[v] == e.sEpoch }

// Boundary evaluates Definition 1 for the current segment S′, with the
// counts ComputeBoundary gives for the same set.
func (e *SegmentEvaluator) Boundary() Boundary {
	var b Boundary
	s := e.sEpoch
	ep := nextEpoch(&e.bEpoch, e.inR, e.inDelta)
	// A neighbour outside S′ has its whole meta-vertex outside S′ (S′
	// is closed), so its root always counts toward δ′.
	outside := func(u cdag.V) {
		if r := e.roots[u]; e.inDelta[r] != ep {
			e.inDelta[r] = ep
			b.DeltaMeta++
		}
	}
	for _, v := range e.set {
		for _, p := range e.g.ParentRow(v) {
			if e.inS[p] == s {
				continue
			}
			if e.inR[p] != ep {
				e.inR[p] = ep
				b.R++
			}
			outside(p)
		}
		wrote := false
		e.buf = e.g.AppendChildren(v, e.buf[:0])
		for _, c := range e.buf {
			if e.inS[c.To] != s {
				wrote = true
				outside(c.To)
			}
		}
		if wrote {
			b.W++
		}
	}
	return b
}

// Segment is a half-open range [Start, End) of schedule positions.
type Segment struct {
	Start, End int
	// Counted is the number of counted meta-vertices the segment
	// contributes (the paper's |S̄|).
	Counted int64
}

// PartitionByCount cuts the schedule into the smallest segments such
// that each (except possibly the last) accumulates at least target
// counted units. countOf(v) gives the number of counted vertices whose
// meta-vertex becomes part of S when v is computed; pass the
// meta-aware weighting computed by the caller (e.g. internal/core's
// counted-rank weights) so that meta-closure never double-counts.
func PartitionByCount(schedule []cdag.V, countOf func(cdag.V) int64, target int64) []Segment {
	var segs []Segment
	start := 0
	var acc int64
	for pos, v := range schedule {
		acc += countOf(v)
		if acc >= target {
			segs = append(segs, Segment{Start: start, End: pos + 1, Counted: acc})
			start = pos + 1
			acc = 0
		}
	}
	if start < len(schedule) {
		segs = append(segs, Segment{Start: start, End: len(schedule), Counted: acc})
	}
	return segs
}
