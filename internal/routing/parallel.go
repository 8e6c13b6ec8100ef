package routing

// The Routing Theorem verification engine. The check is embarrassingly
// parallel over *rows* of the pair-path enumeration space: row
// s·aᵏ + in covers the aᵏ paths from input `in` of side s to every
// output, and rows inherit the sequential enumeration order of
// ForEachPairPath. Each worker scans a contiguous row range into
// worker-local int64 hit accumulators, merged at the end, so the heavy
// Theorem 2 verification scales with cores. VerifyFullRouting is
// literally the one-worker instance of the same code path, which makes
// the parallel and sequential results bit-identical by construction.
// The same row ranges are the unit of the checkpoint shards (see
// checkpoint.go), so checkpointed runs are bit-identical too.
//
// Failure semantics: workers publish the sequential position of the
// first error they hit through a shared atomic minimum. A worker whose
// entire remaining scan lies after the published position stops —
// cooperative cancellation — while the worker that owns the globally
// earliest error always reaches it (nothing published can precede it,
// by minimality). The merge then selects the error at the earliest
// position, so VerifyFullRoutingParallel reports exactly the error
// VerifyFullRouting reports, at any worker count.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

const (
	// defaultAdjacencyStride is the default sampling rate for full
	// edge-by-edge path adjacency verification: every 257th path, the
	// seed's spot-check rate (full adjacency of every chain is covered
	// by VerifyGuaranteedRouting plus the junction structure; the
	// sample guards the composition itself).
	defaultAdjacencyStride = 257
	// progressChunk is how many paths a worker enumerates between
	// Progress snapshots (and batched metric flushes).
	progressChunk = 1 << 15
	// progressTimeFloor caps the wall time between snapshots: a worker
	// far below progressChunk paths/s (deep k, slow disk, contended
	// box) still reports at least this often.
	progressTimeFloor = time.Second
	// progressClockMask rate-limits the wall-clock reads backing the
	// time floor to every (mask+1) paths, keeping time.Now off the
	// per-path fast path.
	progressClockMask = 1<<10 - 1
)

// VerifyFullRoutingParallel is VerifyFullRouting distributed over
// workers goroutines (0 → GOMAXPROCS, clamped to one row per worker).
// It verifies the same properties and returns the same statistics and,
// for corrupted routings, the same error.
func (r *Router) VerifyFullRoutingParallel(workers int) (Stats, error) {
	st, _, err := r.VerifyFullRoutingHits(workers)
	return st, err
}

// VerifyFullRoutingHits is VerifyFullRoutingParallel that also returns
// the merged per-vertex hit vector, indexed by vertex ID: entry v is
// the number of pair paths through v. Every kernel produces it exactly
// (the orbit kernels credit shared chains by weight, but the total
// credited to a vertex is its path count), so callers can derive
// per-vertex load tables without re-enumerating the routing. The
// vector is nil whenever the error is non-nil.
func (r *Router) VerifyFullRoutingHits(workers int) (Stats, []int64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return r.verifyFullRouting(workers)
}

// workerState is one worker's private accumulator. Both hit
// accumulators are dense vectors indexed by vertex ID — metaHits only
// has nonzero entries at meta-vertex roots, but a dense vector keeps
// the per-path accumulation a bounds-checked array add instead of a
// map operation, and is the form the checkpoint merges and stores.
//
// The vectors, the fan kernel's stamp vector, serial and state, and
// the progress peak live for the whole run: the checkpointed engine
// scans many shards into one state, and its merge adds the vectors
// into the checkpoint and zeroes them. The tallies below them are per
// row range and reset by begin.
type workerState struct {
	hits     hitVec
	metaHits hitVec
	stamp    []int64 // fan kernel: serial of the last orbit to credit each root
	serial   int64
	fan      fanState  // the fan kernel's state and unwalked junction-key weights
	deferFan bool      // leave fan passes to the caller (see scanRowsFan)
	peak     int64     // running max of hits (for Progress)
	lastPeak time.Time // when the fan kernel last recomputed peak

	numPaths   int64
	totalHits  int64
	adjChecked int64
	err        error
	errPos     int64
	// cancelled marks a scan that returned early, without an error of
	// its own, because another worker published an earlier one. Its
	// tallies and hits cover only part of the range.
	cancelled bool
}

// begin readies s for a scan of one row range of an n-vertex graph: it
// allocates the hit vectors on first use and resets the per-range
// tallies.
func (s *workerState) begin(n int) {
	if s.hits == nil {
		s.hits = make(hitVec, n)
		s.metaHits = make(hitVec, n)
	}
	s.numPaths, s.totalHits, s.adjChecked = 0, 0, 0
	s.err, s.errPos, s.cancelled = nil, math.MaxInt64, false
}

// notePeak recomputes the progress peak, a pass over every vertex, on
// the worker's first snapshot and then at most once per
// progressTimeFloor across all its ranges. Hits only grow between
// merges, and a merge moves them into the checkpoint, so the running
// maximum stays a lower bound on the final maximum.
func (s *workerState) notePeak() {
	if s.lastPeak.IsZero() || time.Since(s.lastPeak) >= progressTimeFloor {
		s.peak = max(s.peak, s.hits.max())
		s.lastPeak = time.Now()
	}
}

// fail records the worker's first error and publishes its sequential
// position so workers scanning strictly later positions can stop.
func (s *workerState) fail(pos int64, err error, earliestErr *atomic.Int64) {
	s.err, s.errPos = err, pos
	for {
		cur := earliestErr.Load()
		if pos >= cur || earliestErr.CompareAndSwap(cur, pos) {
			return
		}
	}
}

// pairIndex is the position of (side, in, out) in sequential
// enumeration order (ForEachPairPath): side-major, then input, then
// output. With aK < 2³¹ (guaranteed by the int32 vertex-ID limit) the
// product fits int64.
func (r *Router) pairIndex(side bilinear.Side, in, out int64) int64 {
	s := int64(0)
	if side == bilinear.SideB {
		s = 1
	}
	aK := r.powA[r.k]
	return (s*aK+in)*aK + out
}

// numRows is the size of the row space: one row per (side, input), in
// sequential enumeration order, so the pair path at position p lives in
// row p / aᵏ.
func (r *Router) numRows() int64 { return 2 * r.powA[r.k] }

// rowOf decomposes a row index into its (side, input).
func (r *Router) rowOf(row int64) (bilinear.Side, int64) {
	if aK := r.powA[r.k]; row >= aK {
		return bilinear.SideB, row - aK
	}
	return bilinear.SideA, row
}

// clampWorkers bounds a worker count by an int64 work-item count
// without truncation: the narrowing cast runs only when the limit is
// already known to be below the current count (which fits int), so the
// result is exact on 32-bit platforms where int(limit) alone could
// truncate a large limit to a wrong — even negative — worker count.
func clampWorkers(workers int, limit int64) int {
	if int64(workers) > limit {
		return int(limit)
	}
	return workers
}

func (r *Router) adjStride() int64 {
	if r.AdjacencySampleStride > 0 {
		return r.AdjacencySampleStride
	}
	return defaultAdjacencyStride
}

// scanRows verifies the pair paths of rows [rowLo, rowHi): length,
// endpoints, sampled edge-by-edge adjacency, and hit accumulation per
// vertex and per meta-vertex. It is the shared core of the plain
// workers and of the checkpoint shards. The range's hits are added to
// out's vectors, which may already hold earlier ranges'; its tallies
// replace out's. A scan cut short by an earlier error that another
// worker published sets out.cancelled.
//
// It is the full-enumeration scan (OrbitReduction off) and the oracle
// the fan kernel is tested against. The loop is allocation-free in
// steady state: one pathScratch per call carries the digit odometer
// and chain buffer, meta roots come from the dense precomputed table,
// and per-path root dedup is a linear scan of a fixed-size array (a
// path has 3(2k+2)-2 vertices, so at most that many distinct roots).
func (r *Router) scanRows(w, workers int, rowLo, rowHi int64, earliestErr *atomic.Int64, out *workerState) {
	g := r.G
	aK := r.powA[r.k]
	wantLen := 3*(2*r.k+2) - 2
	stride := r.adjStride()
	out.begin(g.NumVertices())
	total := (rowHi - rowLo) * aK
	observing := r.Progress != nil || r.Obs != nil
	// Snapshot cadence: a monotonic per-worker "next threshold" (immune
	// to counts stepping past a modulo boundary) with a wall-time floor
	// so slow shards still report.
	nextEmit := int64(progressChunk)
	var lastEmit time.Time
	var flushedPaths, flushedAdj int64
	emit := func(final bool) {
		r.Obs.flushScan(out.numPaths-flushedPaths, out.adjChecked-flushedAdj, out.peak)
		flushedPaths, flushedAdj = out.numPaths, out.adjChecked
		nextEmit = out.numPaths + progressChunk
		lastEmit = time.Now()
		if r.Progress != nil {
			r.Progress(Progress{Worker: w, Workers: workers, Done: out.numPaths,
				Total: total, PeakVertexHits: out.peak, Final: final})
		}
	}
	if observing {
		lastEmit = time.Now()
		defer emit(true)
	}

	var buf []cdag.V
	ps := r.newPathScratch()
	metaRoots := g.MetaRoots()
	for row := rowLo; row < rowHi; row++ {
		// Cooperative cancellation: an error published at a position
		// before everything left in this worker's scan makes the
		// rest of the scan irrelevant to the first-error selection.
		if earliestErr.Load() < row*aK {
			out.cancelled = true
			return
		}
		side, in := r.rowOf(row)
		ps.setIn(r, in)
		ps.setOut(r, 0)
		for outIdx := int64(0); outIdx < aK; outIdx++ {
			if outIdx != 0 {
				ps.advanceOut(r)
			}
			buf = r.appendPairPath(ps, side, in, outIdx, buf[:0])
			idx := row*aK + outIdx
			out.numPaths++
			out.totalHits += int64(len(buf))
			if len(buf) != wantLen {
				out.fail(idx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): length %d, want %d",
					side, in, outIdx, len(buf), wantLen), earliestErr)
				return
			}
			wantIn := g.InputA(in)
			if side == bilinear.SideB {
				wantIn = g.InputB(in)
			}
			if buf[0] != wantIn || buf[len(buf)-1] != g.Output(outIdx) {
				out.fail(idx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): endpoints %s..%s",
					side, in, outIdx, g.Label(buf[0]), g.Label(buf[len(buf)-1])), earliestErr)
				return
			}
			if idx%stride == 0 {
				out.adjChecked++
				for i := 0; i+1 < len(buf); i++ {
					if !g.Adjacent(buf[i], buf[i+1]) {
						out.fail(idx, fmt.Errorf("routing: pair path (side %v, in %d, out %d): not connected at %s -- %s",
							side, in, outIdx, g.Label(buf[i]), g.Label(buf[i+1])), earliestErr)
						return
					}
				}
			}
			roots := ps.roots[:0]
			for _, v := range buf {
				out.peak = max(out.peak, out.hits.bump(v))
				if root := metaRoots[v]; !slices.Contains(roots, root) {
					roots = append(roots, root)
				}
			}
			for _, root := range roots {
				out.metaHits[root]++
			}
			if observing && (out.numPaths >= nextEmit ||
				(out.numPaths&progressClockMask == 0 && time.Since(lastEmit) >= progressTimeFloor)) {
				emit(false)
			}
		}
	}
}

// scanRange scans the range with the fan kernel under OrbitReduction,
// else with scanRows, plus per-range observability: the enumeration
// latency lands in the shard-enumerate histogram (a plain worker's row
// range is the unit checkpoint shards are made of, so one histogram
// serves both engines), and the scan runs under a pprof worker label
// so CPU profiles attribute samples per worker (`go tool pprof
// -tagfocus worker=3`).
func (r *Router) scanRange(w, workers int, rowLo, rowHi int64, earliestErr *atomic.Int64, out *workerState) {
	if in := r.Obs; in != nil {
		defer in.ShardEnumerate.ObserveSince(time.Now())
	}
	asWorker(w, func() {
		if r.OrbitReduction {
			r.scanRowsFan(w, workers, rowLo, rowHi, earliestErr, out)
		} else {
			r.scanRows(w, workers, rowLo, rowHi, earliestErr, out)
		}
	})
}

// asWorker runs fn under worker w's pprof label.
func asWorker(w int, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("worker", strconv.Itoa(w)), func(context.Context) { fn() })
}

// verifyFullRouting is the engine behind VerifyFullRouting (workers=1)
// and VerifyFullRoutingHits.
func (r *Router) verifyFullRouting(workers int) (Stats, []int64, error) {
	start := time.Now()
	r.Obs.noteStart(start)
	rows := r.numRows()
	workers = clampWorkers(workers, rows) // at most one row per worker
	if workers < 1 {
		workers = 1
	}
	r.G.EnsureAdjacencyIndex() // build once, before the fan-out
	r.G.EnsureMetaRootIndex()  // likewise
	outs := make([]workerState, workers)
	var earliestErr atomic.Int64
	earliestErr.Store(math.MaxInt64)
	if workers == 1 {
		r.scanRange(0, 1, 0, rows, &earliestErr, &outs[0])
	} else {
		// Overflow-safe row partition: |slice| ∈ {⌊rows/W⌋, ⌈rows/W⌉},
		// never forming the product rows·w.
		q, rem := rows/int64(workers), rows%int64(workers)
		var wg sync.WaitGroup
		lo := int64(0)
		for w := 0; w < workers; w++ {
			hi := lo + q
			if int64(w) < rem {
				hi++
			}
			wg.Add(1)
			go func(w int, lo, hi int64) {
				defer wg.Done()
				r.scanRange(w, workers, lo, hi, &earliestErr, &outs[w])
			}(w, lo, hi)
			lo = hi
		}
		wg.Wait()
	}
	return r.finalizeFullRouting(start, outs)
}

// finalizeFullRouting merges the worker accumulators, selects the
// deterministic first error, and checks the 6aᵏ bounds. The merged
// per-vertex hit vector is returned only when every check passes.
func (r *Router) finalizeFullRouting(start time.Time, outs []workerState) (Stats, []int64, error) {
	st := Stats{Bound: 6 * r.powA[r.k]}
	var firstErr error
	firstPos := int64(math.MaxInt64)
	for i := range outs {
		o := &outs[i]
		st.NumPaths += o.numPaths
		st.TotalHits += o.totalHits
		st.AdjacencyChecked += o.adjChecked
		// Deterministic first-error selection: the earliest sequential
		// position wins, so parallel and sequential runs agree.
		if o.err != nil && o.errPos < firstPos {
			firstPos, firstErr = o.errPos, o.err
		}
	}
	if firstErr != nil {
		st.Elapsed = time.Since(start)
		return st, nil, firstErr
	}
	span := r.Obs.startSpan("merge")
	defer span.End()
	hits := outs[0].hits
	metaHits := outs[0].metaHits
	for i := 1; i < len(outs); i++ {
		hits.merge(outs[i].hits)
		metaHits.merge(outs[i].metaHits)
	}
	st.MaxVertexHits = hits.max()
	st.MaxMetaHits = metaHits.max()
	st.Elapsed = time.Since(start)
	if err := r.checkFullRoutingBounds(st); err != nil {
		return st, nil, err
	}
	return st, hits, nil
}

// checkFullRoutingBounds verifies the Routing Theorem's 6aᵏ bounds on
// fully merged stats; shared by the plain and checkpointed finalizers
// so both report identical violations.
func (r *Router) checkFullRoutingBounds(st Stats) error {
	if st.MaxVertexHits > st.Bound {
		return fmt.Errorf("routing: %s G_%d: Routing Theorem violated: vertex hit %d > 6aᵏ = %d",
			r.G.Alg.Name, r.k, st.MaxVertexHits, st.Bound)
	}
	if st.MaxMetaHits > st.Bound {
		return fmt.Errorf("routing: %s G_%d: Routing Theorem violated: meta-vertex hit %d > 6aᵏ = %d",
			r.G.Alg.Name, r.k, st.MaxMetaHits, st.Bound)
	}
	return nil
}
