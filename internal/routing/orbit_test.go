package routing

// Golden tests for the orbit-reduced scan: bit-identical Stats against
// full enumeration over the whole catalog (sequential, parallel, and
// checkpointed), checkpoint interoperability between the two modes,
// rejection of corrupted routings, deterministic failure reporting,
// constant allocation count, and the orbit-group metric.

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/obs"
)

// orbitRouter clones r's configuration into a router with orbit
// reduction enabled (the fan kernel), sharing the graph and matching.
func orbitRouter(t *testing.T, r *Router) *Router {
	t.Helper()
	ro, err := NewRouterWithMatching(r.G, r.BM)
	if err != nil {
		t.Fatal(err)
	}
	ro.AdjacencySampleStride = r.AdjacencySampleStride
	ro.OrbitReduction = true
	return ro
}

// TestOrbitStatsBitIdentical is the golden equivalence of the orbit
// layer and of the engines: for every catalog algorithm and depth, the
// sequential full enumeration's Stats are the reference, and both
// scans (scanRows and the fan kernel) must reproduce them bit for bit
// (Elapsed aside) — sequentially, at every equivalence worker count,
// and through the checkpointed engine.
func TestOrbitStatsBitIdentical(t *testing.T) {
	for _, c := range kernelCatalog() {
		for k := 1; k <= c.maxK; k++ {
			r := mustRouter(t, c.alg, k)
			want, err := r.VerifyFullRouting()
			if err != nil {
				t.Fatalf("%s k=%d full: %v", c.alg.Name, k, err)
			}
			want.Elapsed = 0
			for _, scan := range []struct {
				name string
				r    *Router
			}{{"scratch", r}, {"fan", orbitRouter(t, r)}} {
				got, err := scan.r.VerifyFullRouting()
				if err != nil {
					t.Fatalf("%s k=%d %s: %v", c.alg.Name, k, scan.name, err)
				}
				got.Elapsed = 0
				if got != want {
					t.Fatalf("%s k=%d %s sequential:\ngot  %+v\nfull %+v", c.alg.Name, k, scan.name, got, want)
				}
				for _, w := range equivalenceWorkers() {
					par, err := scan.r.VerifyFullRoutingParallel(w)
					if err != nil {
						t.Fatalf("%s k=%d %s workers=%d: %v", c.alg.Name, k, scan.name, w, err)
					}
					par.Elapsed = 0
					if par != want {
						t.Fatalf("%s k=%d %s workers=%d:\ngot  %+v\nfull %+v", c.alg.Name, k, scan.name, w, par, want)
					}
				}
				ckPath := filepath.Join(t.TempDir(), fmt.Sprintf("%s-k%d-%s.ckpt", c.alg.Name, k, scan.name))
				ck, err := scan.r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: ckPath})
				if err != nil {
					t.Fatalf("%s k=%d %s checkpointed: %v", c.alg.Name, k, scan.name, err)
				}
				ck.Elapsed = 0
				if ck != want {
					t.Fatalf("%s k=%d %s checkpointed:\ngot  %+v\nfull %+v", c.alg.Name, k, scan.name, ck, want)
				}
			}
		}
	}
}

// TestOrbitCheckpointInterop pins shard-level equivalence: because the
// fan kernel produces bit-identical per-shard contributions, a run
// paused under either scan (full enumeration or the fan kernel) must
// resume cleanly under the other and still match an uninterrupted run.
func TestOrbitCheckpointInterop(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 3) // 128 rows
	want, err := r.VerifyFullRouting()
	if err != nil {
		t.Fatal(err)
	}
	want.Elapsed = 0
	roFan := orbitRouter(t, r)
	for _, legs := range []struct {
		name          string
		first, second *Router
	}{
		{"full-then-fan", r, roFan},
		{"fan-then-full", roFan, r},
	} {
		path := filepath.Join(t.TempDir(), "interop.ckpt")
		_, err := legs.first.VerifyFullRoutingCheckpointed(2, CheckpointConfig{
			Path: path, ShardRows: 16, MaxShards: 3,
		})
		if err == nil {
			t.Fatalf("%s: first leg completed instead of pausing", legs.name)
		}
		st, err := legs.second.VerifyFullRoutingCheckpointed(3, CheckpointConfig{
			Path: path, ShardRows: 16, Resume: true,
		})
		if err != nil {
			t.Fatalf("%s: resume: %v", legs.name, err)
		}
		st.Elapsed = 0
		if st != want {
			t.Fatalf("%s:\nmixed-mode   %+v\nuninterrupted %+v", legs.name, st, want)
		}
	}
}

// TestOrbitRejectsCorruptMatching is the negative test: the fan kernel
// must still reject a corrupted routing, and — because the worker that
// owns the earliest erroneous row always reaches that row's first error
// in scan order — report the same error at every worker count.
func TestOrbitRejectsCorruptMatching(t *testing.T) {
	t.Run("fan", func(t *testing.T) {
		r := corruptRouter(t, 3)
		r.OrbitReduction = true
		_, seqErr := r.VerifyFullRouting()
		if seqErr == nil {
			t.Fatal("orbit-reduced verifier accepted a corrupted matching")
		}
		for _, w := range equivalenceWorkers() {
			for trial := 0; trial < 3; trial++ {
				_, parErr := r.VerifyFullRoutingParallel(w)
				if parErr == nil {
					t.Fatalf("workers=%d: corrupted matching accepted", w)
				}
				if parErr.Error() != seqErr.Error() {
					t.Fatalf("workers=%d trial %d:\nparallel   %v\nsequential %v", w, trial, parErr, seqErr)
				}
			}
		}
	})
}

// TestOrbitScanConstantAllocs pins the hot loop's allocation behavior:
// one scan over all 512 Strassen k=2 paths must cost only the fixed
// per-call buffers (accumulators, scratch, stamp vector) — far fewer
// allocations than paths, so the per-path and per-orbit loops are
// allocation-free.
func TestOrbitScanConstantAllocs(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	r.OrbitReduction = true
	r.G.EnsureAdjacencyIndex()
	r.G.EnsureMetaRootIndex()
	rows := r.numRows()
	t.Run("fan", func(t *testing.T) {
		var earliestErr atomic.Int64
		allocs := testing.AllocsPerRun(5, func() {
			earliestErr.Store(math.MaxInt64)
			var ws workerState
			r.scanRowsFan(0, 1, 0, rows, &earliestErr, &ws)
			if ws.err != nil {
				t.Fatal(ws.err)
			}
			if ws.numPaths != 512 {
				t.Fatalf("scanned %d paths, want 512", ws.numPaths)
			}
		})
		if allocs > 24 {
			t.Fatalf("orbit scan of 512 paths: %v allocs/run, want the fixed per-call buffers only (≤ 24)", allocs)
		}
	})
}

// TestOrbitGroupsMetric checks the orbit-group counter: an orbit run
// over G_k collapses 2aᵏn₀ᵏ orbits, and full enumeration reports none.
func TestOrbitGroupsMetric(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	r.Obs = NewInstruments(obs.NewRegistry())
	if _, err := r.VerifyFullRouting(); err != nil {
		t.Fatal(err)
	}
	if got := r.Obs.OrbitGroups.Value(); got != 0 {
		t.Fatalf("full enumeration reported %d orbit groups, want 0", got)
	}
	ro := orbitRouter(t, r)
	ro.Obs = NewInstruments(obs.NewRegistry())
	if _, err := ro.VerifyFullRouting(); err != nil {
		t.Fatal(err)
	}
	wantGroups := 2 * ro.powA[ro.k] * ro.powN[ro.k] // 2·16·4 at Strassen k=2
	if got := ro.Obs.OrbitGroups.Value(); got != wantGroups {
		t.Fatalf("orbit run reported %d groups, want %d", got, wantGroups)
	}
	if got := ro.Obs.Paths.Value(); got != 2*ro.powA[ro.k]*ro.powA[ro.k] {
		t.Fatalf("orbit run reported %d paths, want %d", got, 2*ro.powA[ro.k]*ro.powA[ro.k])
	}
}

// TestOrbitProgressFinalSnapshots extends the final-snapshot contract
// of TestProgressReporting to the orbit scan: every worker emits a
// terminal snapshot even when it finishes far below the chunk cadence,
// and the finals sum to the run's path count.
func TestOrbitProgressFinalSnapshots(t *testing.T) {
	t.Run("fan", func(t *testing.T) {
		r := mustRouter(t, bilinear.Strassen(), 2)
		r.OrbitReduction = true
		var mu sync.Mutex
		finals := make(map[int]Progress)
		r.Progress = func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Final {
				finals[p.Worker] = p
			}
		}
		st, err := r.VerifyFullRoutingParallel(4)
		if err != nil {
			t.Fatal(err)
		}
		r.Progress = nil
		if len(finals) != 4 {
			t.Fatalf("%d final snapshots, want 4", len(finals))
		}
		var done int64
		for w, p := range finals {
			if p.Done != p.Total {
				t.Errorf("worker %d: final Done %d != Total %d", w, p.Done, p.Total)
			}
			if p.PeakVertexHits <= 0 || p.PeakVertexHits > st.MaxVertexHits {
				t.Errorf("worker %d: peak %d outside (0, %d]", w, p.PeakVertexHits, st.MaxVertexHits)
			}
			done += p.Done
		}
		if done != st.NumPaths {
			t.Errorf("workers report %d paths, stats report %d", done, st.NumPaths)
		}
	})
}
