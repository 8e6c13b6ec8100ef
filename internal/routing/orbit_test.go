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
// reduction enabled (the fan kernel by default, stage 1 when stage1 is
// set), sharing the graph and matching.
func orbitRouter(t *testing.T, r *Router, stage1 bool) *Router {
	t.Helper()
	ro, err := NewRouterWithMatching(r.G, r.BM)
	if err != nil {
		t.Fatal(err)
	}
	ro.AdjacencySampleStride = r.AdjacencySampleStride
	ro.OrbitReduction = true
	ro.OrbitStage1 = stage1
	return ro
}

// orbitStages names the two orbit kernels for subtest sweeps.
func orbitStages() []struct {
	name   string
	stage1 bool
} {
	return []struct {
		name   string
		stage1 bool
	}{
		{"stage1", true},
		{"fan", false},
	}
}

// TestOrbitStatsBitIdentical is the golden equivalence of the orbit
// layer: for every catalog algorithm, depth, and orbit kernel stage,
// the orbit-reduced verifiers must produce Stats bit-identical (Elapsed
// aside) to full enumeration — sequentially, at every equivalence
// worker count, and through the checkpointed engine.
func TestOrbitStatsBitIdentical(t *testing.T) {
	for _, c := range kernelCatalog() {
		for k := 1; k <= c.maxK; k++ {
			r := mustRouter(t, c.alg, k)
			want, err := r.VerifyFullRouting()
			if err != nil {
				t.Fatalf("%s k=%d full: %v", c.alg.Name, k, err)
			}
			want.Elapsed = 0
			for _, stage := range orbitStages() {
				ro := orbitRouter(t, r, stage.stage1)
				got, err := ro.VerifyFullRouting()
				if err != nil {
					t.Fatalf("%s k=%d %s: %v", c.alg.Name, k, stage.name, err)
				}
				got.Elapsed = 0
				if got != want {
					t.Fatalf("%s k=%d %s sequential:\norbit %+v\nfull  %+v", c.alg.Name, k, stage.name, got, want)
				}
				for _, w := range equivalenceWorkers() {
					par, err := ro.VerifyFullRoutingParallel(w)
					if err != nil {
						t.Fatalf("%s k=%d %s workers=%d: %v", c.alg.Name, k, stage.name, w, err)
					}
					par.Elapsed = 0
					if par != want {
						t.Fatalf("%s k=%d %s workers=%d:\norbit %+v\nfull  %+v", c.alg.Name, k, stage.name, w, par, want)
					}
				}
				ckPath := filepath.Join(t.TempDir(), fmt.Sprintf("%s-k%d-%s.ckpt", c.alg.Name, k, stage.name))
				ck, err := ro.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: ckPath})
				if err != nil {
					t.Fatalf("%s k=%d %s checkpointed: %v", c.alg.Name, k, stage.name, err)
				}
				ck.Elapsed = 0
				if ck != want {
					t.Fatalf("%s k=%d %s checkpointed:\norbit %+v\nfull  %+v", c.alg.Name, k, stage.name, ck, want)
				}
			}
		}
	}
}

// TestOrbitCheckpointInterop pins shard-level equivalence: because the
// orbit kernels produce bit-identical per-shard contributions, a run
// paused in any of the three modes (full, stage-1 orbit, fan orbit)
// must resume cleanly under any other and still match an uninterrupted
// run.
func TestOrbitCheckpointInterop(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 3) // 128 rows
	want, err := r.VerifyFullRouting()
	if err != nil {
		t.Fatal(err)
	}
	want.Elapsed = 0
	ro1 := orbitRouter(t, r, true)
	roFan := orbitRouter(t, r, false)
	for _, legs := range []struct {
		name          string
		first, second *Router
	}{
		{"full-then-fan", r, roFan},
		{"fan-then-full", roFan, r},
		{"full-then-stage1", r, ro1},
		{"stage1-then-fan", ro1, roFan},
		{"fan-then-stage1", roFan, ro1},
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

// TestOrbitRejectsCorruptMatching is the negative test: both orbit
// kernels must still reject a corrupted routing, and — because the
// worker that owns the earliest erroneous row always reaches that
// row's first error in scan order — report the same error at every
// worker count.
func TestOrbitRejectsCorruptMatching(t *testing.T) {
	for _, stage := range orbitStages() {
		t.Run(stage.name, func(t *testing.T) {
			r := corruptRouter(t, 3)
			r.OrbitReduction = true
			r.OrbitStage1 = stage.stage1
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
	kernels := []struct {
		name string
		scan func(w, workers int, rowLo, rowHi int64, earliestErr *atomic.Int64, out *workerState)
	}{
		{"stage1", r.scanRowsOrbit},
		{"fan", r.scanRowsFan},
	}
	for _, kern := range kernels {
		t.Run(kern.name, func(t *testing.T) {
			var earliestErr atomic.Int64
			allocs := testing.AllocsPerRun(5, func() {
				earliestErr.Store(math.MaxInt64)
				var ws workerState
				kern.scan(0, 1, 0, rows, &earliestErr, &ws)
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
}

// TestOrbitGroupsMetric checks the orbit-group and shared-chain-family
// counters: an orbit run over G_k collapses 2aᵏn₀ᵏ orbits; the default
// kernel additionally aggregates them into 2aᵏ families (one per
// (side, input) row), while stage 1 and full enumeration report no
// families.
func TestOrbitGroupsMetric(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	r.Obs = NewInstruments(obs.NewRegistry())
	if _, err := r.VerifyFullRouting(); err != nil {
		t.Fatal(err)
	}
	if got := r.Obs.OrbitGroups.Value(); got != 0 {
		t.Fatalf("full enumeration reported %d orbit groups, want 0", got)
	}
	if got := r.Obs.OrbitFamilies.Value(); got != 0 {
		t.Fatalf("full enumeration reported %d shared-chain families, want 0", got)
	}
	for _, stage := range orbitStages() {
		ro := orbitRouter(t, r, stage.stage1)
		ro.Obs = NewInstruments(obs.NewRegistry())
		if _, err := ro.VerifyFullRouting(); err != nil {
			t.Fatal(err)
		}
		wantGroups := 2 * ro.powA[ro.k] * ro.powN[ro.k] // 2·16·4 at Strassen k=2
		if got := ro.Obs.OrbitGroups.Value(); got != wantGroups {
			t.Fatalf("%s orbit run reported %d groups, want %d", stage.name, got, wantGroups)
		}
		wantFamilies := int64(0)
		if !stage.stage1 {
			wantFamilies = 2 * ro.powA[ro.k] // one per (side, input) row
		}
		if got := ro.Obs.OrbitFamilies.Value(); got != wantFamilies {
			t.Fatalf("%s orbit run reported %d families, want %d", stage.name, got, wantFamilies)
		}
		if got := ro.Obs.Paths.Value(); got != 2*ro.powA[ro.k]*ro.powA[ro.k] {
			t.Fatalf("%s orbit run reported %d paths, want %d", stage.name, got, 2*ro.powA[ro.k]*ro.powA[ro.k])
		}
	}
}

// TestOrbitProgressFinalSnapshots extends the final-snapshot contract
// of TestProgressReporting to the orbit scan: every worker emits a
// terminal snapshot even when it finishes far below the chunk cadence,
// and the finals sum to the run's path count.
func TestOrbitProgressFinalSnapshots(t *testing.T) {
	for _, stage := range orbitStages() {
		t.Run(stage.name, func(t *testing.T) {
			r := mustRouter(t, bilinear.Strassen(), 2)
			r.OrbitReduction = true
			r.OrbitStage1 = stage.stage1
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
}
