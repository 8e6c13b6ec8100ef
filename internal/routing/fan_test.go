package routing

// Per-range exactness of the fan-aggregated orbit kernel. The Stats
// golden tests compare whole runs and only the maxima of the hit
// vectors; a kernel that moved hits between vertices, or between row
// ranges (checkpoint shards), would pass them. These compare every
// accumulator of scanRowsFan with scanRows, the oracle, on single
// rows, interior ranges, the side boundary and ragged tails.

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"pathrouting/internal/bilinear"
)

// scanRangeDiff scans rows [lo, hi) with the fan kernel and with
// scanRows and reports the first accumulator that differs.
func scanRangeDiff(r *Router, lo, hi int64) error {
	var want, got workerState
	var earliestErr atomic.Int64
	earliestErr.Store(math.MaxInt64)
	r.scanRows(0, 1, lo, hi, &earliestErr, &want)
	r.scanRowsFan(0, 1, lo, hi, &earliestErr, &got)
	if want.err != nil || got.err != nil {
		return fmt.Errorf("rows [%d,%d): scanRows error %v, fan error %v", lo, hi, want.err, got.err)
	}
	if got.numPaths != want.numPaths || got.totalHits != want.totalHits || got.adjChecked != want.adjChecked {
		return fmt.Errorf("rows [%d,%d): paths %d, total hits %d, adjacency checks %d; scanRows %d, %d, %d",
			lo, hi, got.numPaths, got.totalHits, got.adjChecked, want.numPaths, want.totalHits, want.adjChecked)
	}
	if err := diffHits(got.hits, want.hits); err != nil {
		return fmt.Errorf("rows [%d,%d) hits: %w", lo, hi, err)
	}
	if err := diffHits(got.metaHits, want.metaHits); err != nil {
		return fmt.Errorf("rows [%d,%d) meta hits: %w", lo, hi, err)
	}
	return nil
}

func TestFanRangesMatchScanRows(t *testing.T) {
	var routers []*Router
	for _, c := range kernelCatalog() {
		for k := 1; k <= c.maxK; k++ {
			routers = append(routers, mustRouter(t, c.alg, k))
		}
	}
	routers = append(routers, mustRouter(t, bilinear.Strassen(), 4))
	for _, r := range routers {
		rows, aK := r.numRows(), r.powA[r.k]
		ranges := [][2]int64{
			{0, rows},        // the whole run
			{0, 1},           // row 0
			{rows - 1, rows}, // the last row
			{min(3, rows-1), min(17, rows)},
			{aK - 2, aK + 3},     // straddles the side boundary
			{rows*2/3 + 1, rows}, // a ragged tail
		}
		for _, stride := range []int64{0, 3} {
			r.AdjacencySampleStride = stride
			for _, rg := range ranges {
				if err := scanRangeDiff(r, rg[0], rg[1]); err != nil {
					t.Fatalf("%s k=%d stride %d: %v", r.G.Alg.Name, r.k, stride, err)
				}
			}
		}
	}
}

// TestFanReportsScanRowsFirstError: at stride 1 the fan kernel checks
// every path as scanRows does, in the same order within a row, so on a
// corrupted routing it reports scanRows's first error at any worker
// count.
func TestFanReportsScanRowsFirstError(t *testing.T) {
	r := corruptRouter(t, 3)
	_, want := r.VerifyFullRouting()
	if want == nil {
		t.Fatal("scanRows accepted a corrupted matching")
	}
	r.OrbitReduction = true
	for _, w := range []int{1, 3} {
		if _, got := r.VerifyFullRoutingParallel(w); got == nil || got.Error() != want.Error() {
			t.Fatalf("workers=%d: fan kernel reported %v, scanRows %v", w, got, want)
		}
	}
}
