package routing

// FuzzOrbitStatsEquivalence is the randomized arm of the orbit golden
// suite: where TestOrbitStatsBitIdentical sweeps the fixed catalog,
// this draws algorithms from the symmetry orbit of Strassen's (fresh
// coefficient structure and copying patterns every seed) and asserts
// that full enumeration and the fan orbit kernel produce bit-identical
// Stats — and per-vertex hit vectors equal to a ForEachPairPath count —
// across depths, worker counts, and adjacency sample strides, and that
// on one random row range the fan kernel's accumulators equal
// scanRows's, and so do those of a checkpointed fan-kernel run at a
// random shard size and worker count. Under plain `go test` only the
// seed corpus runs; `go test -fuzz=FuzzOrbitStatsEquivalence` explores
// further.

import (
	"math"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

func FuzzOrbitStatsEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(1), uint8(1))
	f.Add(int64(42), uint8(2), uint8(3), uint8(2))
	f.Add(int64(2024), uint8(1), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, kSel, workerSel, strideSel uint8) {
		k := 1 + int(kSel%2)            // random base algorithms have a=7; k=2 is already 4802 paths
		workers := 1 + int(workerSel%4) // 1..4
		stride := []int64{0, 1, 3, 257}[strideSel%4]
		rng := rand.New(rand.NewSource(seed))
		alg, err := bilinear.RandomAlgorithm(rng, nil)
		if err != nil {
			t.Skipf("degenerate orbit sample: %v", err)
		}
		g, err := cdag.New(alg, k)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRouter(g)
		if err != nil {
			t.Fatalf("matching: %v", err)
		}
		r.AdjacencySampleStride = stride
		wantHits := enumeratedHits(r)
		want, hits, err := r.VerifyFullRoutingHits(1)
		if err != nil {
			t.Fatalf("full: %v", err)
		}
		if err := diffHits(hits, wantHits); err != nil {
			t.Fatalf("full hits (k=%d stride=%d): %v", k, stride, err)
		}
		want.Elapsed = 0
		ro := orbitRouter(t, r)
		got, hits, err := ro.VerifyFullRoutingHits(1)
		if err != nil {
			t.Fatalf("fan seq: %v", err)
		}
		got.Elapsed = 0
		if got != want {
			t.Fatalf("fan sequential (k=%d stride=%d):\norbit %+v\nfull  %+v", k, stride, got, want)
		}
		if err := diffHits(hits, wantHits); err != nil {
			t.Fatalf("fan sequential hits (k=%d stride=%d): %v", k, stride, err)
		}
		par, hits, err := ro.VerifyFullRoutingHits(workers)
		if err != nil {
			t.Fatalf("fan workers=%d: %v", workers, err)
		}
		par.Elapsed = 0
		if par != want {
			t.Fatalf("fan workers=%d (k=%d stride=%d):\norbit %+v\nfull  %+v", workers, k, stride, par, want)
		}
		if err := diffHits(hits, wantHits); err != nil {
			t.Fatalf("fan workers=%d hits (k=%d stride=%d): %v", workers, k, stride, err)
		}
		rows := r.numRows()
		lo := rng.Int63n(rows)
		if err := scanRangeDiff(r, lo, lo+1+rng.Int63n(rows-lo)); err != nil {
			t.Fatalf("fan range (k=%d stride=%d): %v", k, stride, err)
		}
		// The checkpointed engine defers the fan passes to its merges and
		// splits the last one across its workers; the file must hold
		// scanRows's vectors all the same.
		shardRows, ckptWorkers := 1+rng.Int63n(rows), 1+rng.Intn(3)
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if _, err := ro.VerifyFullRoutingCheckpointed(ckptWorkers, CheckpointConfig{
			Path: path, ShardRows: shardRows,
		}); err != nil {
			t.Fatalf("checkpointed (shardRows=%d workers=%d): %v", shardRows, ckptWorkers, err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		var all workerState
		var none atomic.Int64
		none.Store(math.MaxInt64)
		r.scanRows(0, 1, 0, rows, &none, &all)
		if err := diffHits(cp.Hits, all.hits); err != nil {
			t.Fatalf("checkpointed hits (k=%d shardRows=%d workers=%d): %v", k, shardRows, ckptWorkers, err)
		}
		if err := diffHits(cp.MetaHits, all.metaHits); err != nil {
			t.Fatalf("checkpointed meta hits (k=%d shardRows=%d workers=%d): %v", k, shardRows, ckptWorkers, err)
		}
	})
}
