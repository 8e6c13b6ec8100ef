// Package core assembles the paper's primary contribution — the
// path-routing lower-bound argument of Sections 5–6 of
// Scott–Holtz–Schwartz (SPAA 2015) — into an executable, machine-checked
// proof over explicit computation graphs.
//
// Given a CDAG G_r, a concrete schedule, and the paper's segment
// parameters (k, M), Certify:
//
//  1. selects a collection C of mutually input-disjoint subcomputations
//     G_k^i (Lemma 1, constructive greedy form),
//  2. cuts the schedule into minimal segments S each containing at
//     least 36M counted vertices — vertices on decoding rank k or
//     encoding rank r−k lying in C, counted through meta-vertex closure
//     exactly as the paper prescribes,
//  3. computes δ′(S′) for every complete segment and checks
//     Equation (2): |δ′(S′)| ≥ |S̄|/12, hence ≥ 3M, hence the segment
//     performs at least M I/Os,
//  4. optionally re-derives step 3 for sampled segments from first
//     principles — embedding the Routing Theorem's 6aᵏ-routing into
//     each subcomputation, counting boundary-crossing paths, and
//     checking the chain |P| ≥ ½aᵏ|S̄| and |δ′(S′)| ≥ |P|/6aᵏ,
//  5. reports the certified lower bound (#complete segments)·M, which
//     any execution of the schedule must pay; callers cross-check it
//     against pebble-simulator measurements.
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/pebble"
	"pathrouting/internal/routing"
)

// Options configures Certify.
type Options struct {
	// K is the paper's subcomputation size parameter; it must satisfy
	// 1 ≤ K ≤ r. The regime condition of the theorem additionally wants
	// K ≤ r−2 (so Lemma 1 applies); Certify enforces only K ≤ r and
	// reports the collection size it achieved.
	K int
	// M is the cache size being certified against. The paper's segment
	// constants require aᴷ ≥ 72M; Certify rejects parameters violating
	// it (the inequality |S̄| ≤ ½aᴷ underlying Equation (2) would not be
	// guaranteed).
	M int64
	// DeepSegments, when positive, re-derives Equation (2) for up to
	// this many segments via explicit routing-path counting (step 4).
	DeepSegments int
	// RelaxedTarget, when positive, replaces the paper's 36M quota with
	// this value (which must satisfy RelaxedTarget ≤ aᴷ/2) and verifies
	// Equation (2) only, without certifying an I/O bound. This lets the
	// combinatorial core of the proof be exercised on graphs too small
	// for the paper's unoptimized constants. M is ignored.
	RelaxedTarget int64
}

// SegmentReport records the verification of one complete segment.
type SegmentReport struct {
	// Start and End delimit the schedule positions of the segment.
	Start, End int
	// Counted is |S̄|, the number of counted vertices.
	Counted int64
	// DeltaMeta is |δ′(S′)|.
	DeltaMeta int64
	// CrossingPaths is the routing-path count of the deep verification,
	// 0 when the segment was not deep-checked.
	CrossingPaths int64
}

// Certificate is the outcome of the executable lower-bound argument.
type Certificate struct {
	// K and M echo the options.
	K int
	M int64
	// Target is the per-segment counted quota, 36M.
	Target int64
	// CollectionSize is the number of mutually input-disjoint
	// subcomputations selected (Lemma 1 guarantees ≥ b^(r−k)/b² exist
	// when k ≤ r−2).
	CollectionSize int
	// CountedTotal is the total number of counted vertices available.
	CountedTotal int64
	// CompleteSegments is the number of segments meeting the quota.
	CompleteSegments int
	// MinDeltaRatio is the minimum over complete segments of
	// |δ′(S′)| / |S̄| (Equation (2) asserts ≥ 1/12).
	MinDeltaRatio float64
	// CertifiedIO is the proven lower bound: CompleteSegments · M.
	CertifiedIO int64
	// Segments holds the per-segment reports.
	Segments []SegmentReport
}

// Certify runs the argument on the given schedule. It returns an error
// if the parameters are out of range or if any machine-checked
// inequality of the proof fails (which would falsify the paper's claim
// on this instance).
func Certify(g *cdag.Graph, sched []cdag.V, opts Options) (*Certificate, error) {
	r := g.R
	if opts.K < 1 || opts.K > r {
		return nil, fmt.Errorf("core: K = %d out of range [1,%d]", opts.K, r)
	}
	aK := int64(1)
	for i := 0; i < opts.K; i++ {
		aK *= int64(g.A())
	}
	relaxed := opts.RelaxedTarget > 0
	var target int64
	if relaxed {
		target = opts.RelaxedTarget
		if target > aK/2 {
			return nil, fmt.Errorf("core: relaxed target %d > aᴷ/2 = %d", target, aK/2)
		}
		opts.M = 0
	} else {
		if opts.M < 1 {
			return nil, fmt.Errorf("core: M = %d < 1", opts.M)
		}
		if aK < 72*opts.M {
			return nil, fmt.Errorf("core: aᴷ = %d < 72M = %d: segment constants need a larger K", aK, 72*opts.M)
		}
		target = 36 * opts.M
	}
	cert := &Certificate{K: opts.K, M: opts.M, Target: target, MinDeltaRatio: 1e18}

	// Step 1: Lemma 1 — input-disjoint collection.
	collection := g.InputDisjointCollection(opts.K)
	cert.CollectionSize = len(collection)
	if len(collection) == 0 {
		return nil, fmt.Errorf("core: no input-disjoint subcomputations at K = %d", opts.K)
	}
	sg := newSegmenter(g, opts.K, collection)
	cert.CountedTotal = sg.total
	if cert.CountedTotal < cert.Target {
		return nil, fmt.Errorf("core: only %d counted vertices for target %d; shrink M or grow r",
			cert.CountedTotal, cert.Target)
	}
	if maxWeight := int64(slices.Max(sg.weight)); cert.Target+maxWeight-1 > aK/2 {
		return nil, fmt.Errorf(
			"core: quota %d plus worst meta-vertex weight %d can exceed aᴷ/2 = %d; |S̄| ≤ ½aᴷ would be unguaranteed",
			cert.Target, maxWeight, aK/2)
	}

	// Step 2: minimal segments with |S̄| ≥ 36M, counting each
	// meta-vertex once per segment. A first cut only counts them, so
	// the reports are allocated once.
	nSegs := 0
	_ = sg.cut(sched, cert.Target, func(int, int, int64) error { nSegs++; return nil }) // counting never fails
	cert.Segments = make([]SegmentReport, 0, nSegs)

	// Step 3: Equation (2) for every complete segment.
	var deep *deepVerifier
	if opts.DeepSegments > 0 {
		var err error
		if deep, err = newDeepVerifier(g, opts.K, collection); err != nil {
			return nil, err
		}
	}
	ev := pebble.NewSegmentEvaluator(g)
	deepBudget := opts.DeepSegments
	err := sg.cut(sched, cert.Target, func(start, end int, counted int64) error {
		ev.Close(sched[start:end])
		b := segmentBoundary(ev)
		rep := SegmentReport{Start: start, End: end, Counted: counted, DeltaMeta: b.DeltaMeta}
		ratio := float64(b.DeltaMeta) / float64(counted)
		if ratio < cert.MinDeltaRatio {
			cert.MinDeltaRatio = ratio
		}
		if 12*b.DeltaMeta < counted {
			return fmt.Errorf(
				"core: Equation (2) fails on segment [%d,%d): |δ′(S′)| = %d < |S̄|/12 = %d/12",
				start, end, b.DeltaMeta, counted)
		}
		if !relaxed && b.DeltaMeta < 3*opts.M {
			return fmt.Errorf(
				"core: segment [%d,%d): |δ′(S′)| = %d < 3M = %d", start, end, b.DeltaMeta, 3*opts.M)
		}
		// Step 4: deep routing-based derivation on a budget.
		if deepBudget > 0 {
			deepBudget--
			crossings, err := deep.verify(ev, counted, b.DeltaMeta)
			if err != nil {
				return err
			}
			rep.CrossingPaths = crossings
		}
		cert.Segments = append(cert.Segments, rep)
		cert.CompleteSegments++
		return nil
	})
	if err != nil {
		return cert, err
	}
	// (The trailing partial segment is not certified — as in the paper.)
	cert.CertifiedIO = int64(cert.CompleteSegments) * opts.M
	return cert, nil
}

// segmentBoundary evaluates Definition 1 on an evaluator's current
// segment. It is a variable only so tests can force a boundary below
// the bound and see every certifier's inequality check fail.
var segmentBoundary = (*pebble.SegmentEvaluator).Boundary

// segmenter cuts a computation sequence into the proof's minimal
// segments: a segment closes at the first position where the counted
// weights of the distinct meta-vertices it has touched reach the
// target. Its tables are dense over vertex IDs and serve every
// segment.
type segmenter struct {
	roots []cdag.V
	// weight[root] is the number of counted vertices (decoding rank k
	// or encoding rank r−k, inside the collection) in root's
	// meta-vertex. Adding any member of the meta-vertex to S contributes
	// the root's full weight to |S̄| exactly once.
	weight []int32
	total  int64 // Σ weight
	// seen[root] == stamp ⇔ the current segment has touched root.
	seen  []uint32
	stamp uint32
}

// newSegmenter computes the counted weights of the K-subcomputations
// whose prefixes are listed in collection.
func newSegmenter(g *cdag.Graph, k int, collection []int64) *segmenter {
	n := g.NumVertices()
	sg := &segmenter{roots: g.MetaRoots(), weight: make([]int32, n), seen: make([]uint32, n)}
	nSub := 1 // b^(r−k) subcomputations
	for i := k; i < g.R; i++ {
		nSub *= g.B()
	}
	inC := make([]bool, nSub)
	for _, p := range collection {
		inC[p] = true
	}
	add := func(kind cdag.Kind, rank int) {
		base, size := g.LayerBase(kind, rank), g.LayerSize(kind, rank)
		for i := 0; i < size; i++ {
			v := base + cdag.V(i)
			if sub := g.Subcomputation(v, k); sub >= 0 && inC[sub] {
				sg.weight[sg.roots[v]]++
				sg.total++
			}
		}
	}
	add(cdag.EncA, g.R-k)
	add(cdag.EncB, g.R-k)
	add(cdag.Dec, k)
	return sg
}

// cut calls emit for each complete segment of seq, in order, and stops
// at emit's first error. The trailing partial segment is not emitted.
func (sg *segmenter) cut(seq []cdag.V, target int64, emit func(start, end int, counted int64) error) error {
	fresh := func() {
		if sg.stamp++; sg.stamp == 0 {
			clear(sg.seen)
			sg.stamp = 1
		}
	}
	fresh()
	start, acc := 0, int64(0)
	for pos, v := range seq {
		if r := sg.roots[v]; sg.seen[r] != sg.stamp {
			sg.seen[r] = sg.stamp
			acc += int64(sg.weight[r])
		}
		if acc >= target {
			if err := emit(start, pos+1, acc); err != nil {
				return err
			}
			start, acc = pos+1, 0
			fresh()
		}
	}
	return nil
}

// deepVerifier re-derives Equation (2) for a segment, the evaluator's
// current S′, from the Routing Theorem: it embeds the 6aᵏ-routing in
// every collection subcomputation, counts the boundary-crossing paths
// |P|, and checks |P| ≥ ½aᵏ·|S̄| and 6aᵏ·|δ′(S′)| ≥ |P|.
//
// Its tables are built once per Certify and serve every deep segment.
// The routing's pair paths are listed once, since they do not depend
// on the segment. For the C collection prefixes, a segment fills a
// |V(G_K)| × ⌈C/64⌉ bit table: bit p of row v is set iff the copy of v
// in subcomputation p lies in S′. A path crosses S′ in subcomputation
// p iff bit p is set in the OR of its vertices' rows and clear in
// their AND, so one pass over the paths counts all C subcomputations
// 64 at a time. Router.CountBoundaryCrossing is the per-subcomputation
// reference.
type deepVerifier struct {
	g, gk      *cdag.Graph
	collection []int64
	aK         int64
	// paths lists every pair path of G_K, pathLen vertices each, in
	// ForEachPairPath order.
	paths   []cdag.V
	pathLen int
	// rows[v·words + p/64] holds bit p%64 of vertex v's row.
	rows  []uint64
	words int
}

// maxDeepPathVertices caps the pair-path table: 2a²ᴷ paths of 6K+4
// vertices, 32K entries at Strassen K=2 and 3.7M at K=4.
const maxDeepPathVertices = 1 << 28

func newDeepVerifier(g *cdag.Graph, k int, collection []int64) (*deepVerifier, error) {
	d := &deepVerifier{g: g, collection: collection, aK: 1, pathLen: 6*k + 4}
	for i := 0; i < k; i++ {
		d.aK *= int64(g.A())
	}
	if d.aK > maxDeepPathVertices/(2*d.aK*int64(d.pathLen)) {
		return nil, fmt.Errorf("core: deep verification at K = %d would list 2·%d² pair paths; K is too large", k, d.aK)
	}
	var err error
	if d.gk, err = cdag.New(g.Alg, k); err != nil {
		return nil, fmt.Errorf("core: deep verification graph: %w", err)
	}
	router, err := routing.NewRouter(d.gk)
	if err != nil {
		return nil, fmt.Errorf("core: deep verification router: %w", err)
	}
	d.paths = make([]cdag.V, 0, 2*d.aK*d.aK*int64(d.pathLen))
	router.ForEachPairPath(func(_ bilinear.Side, _, _ int64, path []cdag.V) {
		d.paths = append(d.paths, path...)
	})
	d.words = (len(collection) + 63) / 64
	d.rows = make([]uint64, d.gk.NumVertices()*d.words)
	return d, nil
}

// verify checks one segment and returns its crossing-path count |P|.
func (d *deepVerifier) verify(s *pebble.SegmentEvaluator, counted, deltaMeta int64) (int64, error) {
	total := d.crossings(s)
	if 2*total < d.aK*counted {
		return total, fmt.Errorf(
			"core: routing argument fails: %d boundary-crossing paths < ½aᵏ|S̄| = %d",
			total, d.aK*counted/2)
	}
	if 6*d.aK*deltaMeta < total {
		return total, fmt.Errorf(
			"core: meta-hit bound fails: 6aᵏ·|δ′| = %d < |P| = %d", 6*d.aK*deltaMeta, total)
	}
	return total, nil
}

// crossings counts, summed over the collection subcomputations, the
// pair paths that have a vertex inside the evaluator's current S′ and
// one outside.
func (d *deepVerifier) crossings(s *pebble.SegmentEvaluator) int64 {
	for v := range d.gk.NumVertices() {
		row := d.rows[v*d.words : (v+1)*d.words]
		clear(row)
		for p, prefix := range d.collection {
			if s.Has(d.g.Embed(d.gk, cdag.V(v), prefix)) {
				row[p/64] |= 1 << (p % 64)
			}
		}
	}
	var total int64
	for start := 0; start < len(d.paths); start += d.pathLen {
		path := d.paths[start : start+d.pathLen]
		for w := range d.words {
			anyIn, allIn := uint64(0), ^uint64(0)
			for _, v := range path {
				x := d.rows[int(v)*d.words+w]
				anyIn |= x
				allIn &= x
			}
			total += int64(bits.OnesCount64(anyIn &^ allIn))
		}
	}
	return total
}
