package routing

// Per-vertex oracle for the full routing's hit vectors. The Stats
// golden tests pin only the vectors' max and total; callers that build
// load tables from VerifyFullRoutingHits (routecheck's rank histogram)
// or from a checkpoint's Hits and MetaHits trust every entry, so each
// engine's vectors are checked entry by entry against counts taken
// over ForEachPairPath.

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

// enumeratedMetaHits counts, for every meta-vertex root, the pair paths
// that meet the meta-vertex. Each path's roots are found by walking
// copy edges (Graph.MetaRoot, not the dense table the scans read) and
// deduplicated through a map, independently of both scans' dedup.
func enumeratedMetaHits(r *Router) []int64 {
	g := r.G
	meta := make([]int64, g.NumVertices())
	roots := make(map[cdag.V]struct{})
	r.ForEachPairPath(func(_ bilinear.Side, _, _ int64, path []cdag.V) {
		clear(roots)
		for _, v := range path {
			roots[g.MetaRoot(v)] = struct{}{}
		}
		for root := range roots {
			meta[root]++
		}
	})
	return meta
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
			want, wantMeta := enumeratedHits(r), enumeratedMetaHits(r)
			kernels := map[string]*Router{"scratch": r, "fan": orbitRouter(t, r)}
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
			for name, kr := range kernels {
				fresh := filepath.Join(t.TempDir(), "fresh.ckpt")
				if _, err := kr.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: fresh, ShardRows: shardRows}); err != nil {
					t.Fatalf("%s k=%d %s checkpointed: %v", c.alg.Name, k, name, err)
				}
				paused := filepath.Join(t.TempDir(), "paused.ckpt")
				_, err := kr.VerifyFullRoutingCheckpointed(3, CheckpointConfig{Path: paused, ShardRows: shardRows, MaxShards: 1})
				if !errors.Is(err, ErrPaused) {
					t.Fatalf("%s k=%d %s: expected ErrPaused, got %v", c.alg.Name, k, name, err)
				}
				if _, err := kr.VerifyFullRoutingCheckpointed(1, CheckpointConfig{Path: paused, Resume: true}); err != nil {
					t.Fatalf("%s k=%d %s resume: %v", c.alg.Name, k, name, err)
				}
				for _, path := range []string{fresh, paused} {
					cp, err := LoadCheckpoint(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := diffHits(cp.Hits, want); err != nil {
						t.Fatalf("%s k=%d %s %s: %v", c.alg.Name, k, name, filepath.Base(path), err)
					}
					if err := diffHits(cp.MetaHits, wantMeta); err != nil {
						t.Fatalf("%s k=%d %s %s meta hits: %v", c.alg.Name, k, name, filepath.Base(path), err)
					}
				}
			}
		}
	}
}
