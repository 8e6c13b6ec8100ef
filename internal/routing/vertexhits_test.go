package routing

// Per-vertex oracle for the full routing's hit vector. The Stats
// golden tests pin only the vector's max and total; callers that build
// load tables from VerifyFullRoutingHits (routecheck's rank histogram)
// or from a checkpoint's Hits trust every entry, so each engine's
// vector is checked entry by entry against a count taken over
// ForEachPairPath.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
)

// enumeratedHits counts, for every vertex, the pair paths through it by
// enumerating the routing sequentially — the oracle the verifiers'
// merged vectors must reproduce.
func enumeratedHits(r *Router) []int64 {
	hits := make([]int64, r.G.NumVertices())
	r.ForEachPairPath(func(_ bilinear.Side, _, _ int64, path []cdag.V) {
		for _, v := range path {
			hits[v]++
		}
	})
	return hits
}

// diffHits reports the first vertex whose count differs, or nil.
func diffHits(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("vector length %d, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d: %d hits, want %d", v, got[v], want[v])
		}
	}
	return nil
}

func TestVertexHitsMatchEnumeration(t *testing.T) {
	for _, c := range kernelCatalog() {
		for k := 1; k <= c.maxK; k++ {
			r := mustRouter(t, c.alg, k)
			want := enumeratedHits(r)
			kernels := map[string]*Router{"scratch": r}
			for _, stage := range orbitStages() {
				kernels[stage.name] = orbitRouter(t, r, stage.stage1)
			}
			for name, kr := range kernels {
				for _, w := range []int{1, 3} {
					_, hits, err := kr.VerifyFullRoutingHits(w)
					if err == nil {
						err = diffHits(hits, want)
					}
					if err != nil {
						t.Fatalf("%s k=%d %s workers=%d: %v", c.alg.Name, k, name, w, err)
					}
				}
			}

			shardRows := max(1, r.numRows()/4)
			fresh := filepath.Join(t.TempDir(), "fresh.ckpt")
			if _, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: fresh, ShardRows: shardRows}); err != nil {
				t.Fatalf("%s k=%d checkpointed: %v", c.alg.Name, k, err)
			}
			paused := filepath.Join(t.TempDir(), "paused.ckpt")
			_, err := r.VerifyFullRoutingCheckpointed(3, CheckpointConfig{Path: paused, ShardRows: shardRows, MaxShards: 1})
			if !errors.Is(err, ErrPaused) {
				t.Fatalf("%s k=%d: expected ErrPaused, got %v", c.alg.Name, k, err)
			}
			if _, err := r.VerifyFullRoutingCheckpointed(1, CheckpointConfig{Path: paused, Resume: true}); err != nil {
				t.Fatalf("%s k=%d resume: %v", c.alg.Name, k, err)
			}
			for _, path := range []string{fresh, paused} {
				cp, err := LoadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := diffHits(cp.Hits, want); err != nil {
					t.Fatalf("%s k=%d %s: %v", c.alg.Name, k, filepath.Base(path), err)
				}
			}
		}
	}
}
