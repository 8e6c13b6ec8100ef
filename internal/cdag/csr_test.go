package cdag

import (
	"math/rand"
	"sync"
	"testing"

	"pathrouting/internal/bilinear"
)

// TestAdjacencyIndexMatchesArithmetic cross-checks the CSR index
// against the arithmetic edge enumeration it is built from: every
// enumerated parent/child edge must be visible through HasEdge and
// Adjacent, and random non-edges must stay invisible.
func TestAdjacencyIndexMatchesArithmetic(t *testing.T) {
	for _, tc := range []struct {
		alg *bilinear.Algorithm
		r   int
	}{
		{bilinear.Strassen(), 2},
		{bilinear.Classical(2), 2},
		{bilinear.DisconnectedFast(), 1},
	} {
		g, err := New(tc.alg, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		edges := make(map[[2]V]bool)
		var buf []Edge
		for v := V(0); int(v) < g.NumVertices(); v++ {
			buf = g.AppendParents(v, buf[:0])
			for _, e := range buf {
				edges[[2]V{e.To, v}] = true
				if !g.HasEdge(e.To, v) {
					t.Fatalf("%s r=%d: HasEdge(%s, %s) = false for an enumerated edge",
						tc.alg.Name, tc.r, g.Label(e.To), g.Label(v))
				}
				if !g.Adjacent(e.To, v) || !g.Adjacent(v, e.To) {
					t.Fatalf("%s r=%d: Adjacent misses edge %s -- %s",
						tc.alg.Name, tc.r, g.Label(e.To), g.Label(v))
				}
			}
		}
		// Children must agree with the same index.
		for v := V(0); int(v) < g.NumVertices(); v++ {
			buf = g.AppendChildren(v, buf[:0])
			for _, e := range buf {
				if !g.HasEdge(v, e.To) {
					t.Fatalf("%s r=%d: HasEdge misses child edge %s -> %s",
						tc.alg.Name, tc.r, g.Label(v), g.Label(e.To))
				}
			}
		}
		// Random non-edges.
		rng := rand.New(rand.NewSource(7))
		n := V(g.NumVertices())
		for trial := 0; trial < 200; trial++ {
			u, v := V(rng.Intn(int(n))), V(rng.Intn(int(n)))
			if edges[[2]V{u, v}] {
				continue
			}
			if g.HasEdge(u, v) {
				t.Fatalf("%s r=%d: HasEdge(%s, %s) = true for a non-edge",
					tc.alg.Name, tc.r, g.Label(u), g.Label(v))
			}
			if !edges[[2]V{v, u}] && g.Adjacent(u, v) {
				t.Fatalf("%s r=%d: Adjacent(%s, %s) = true for a non-edge",
					tc.alg.Name, tc.r, g.Label(u), g.Label(v))
			}
		}
	}
}

// TestAdjacencyIndexConcurrentInit exercises the lazy construction from
// several goroutines at once (run with -race).
func TestAdjacencyIndexConcurrentInit(t *testing.T) {
	g, err := New(bilinear.Strassen(), 2)
	if err != nil {
		t.Fatal(err)
	}
	prod := g.Product(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !g.HasEdge(g.ID(EncA, g.R, 0), prod) {
				t.Error("product must have its rank-r combination as parent")
			}
		}()
	}
	wg.Wait()
}

// TestParentRowMatchesAppendParents requires every CSR row to list a
// vertex's parents exactly as AppendParents does, order included, and
// in strictly ascending order, for every catalog algorithm at r ≤ 3 and
// for Strassen G_5 and Winograd G_4: the index synthesizes its rows
// layer by layer, AppendParents is the oracle, and the pebble
// simulator, which reads rows where it used to call AppendParents,
// breaks eviction ties by the order parents are touched and counts on
// a parent occurring once per row.
func TestParentRowMatchesAppendParents(t *testing.T) {
	type instance struct {
		alg *bilinear.Algorithm
		r   int
	}
	var instances []instance
	for _, alg := range bilinear.All() {
		for r := 1; r <= 3; r++ {
			instances = append(instances, instance{alg, r})
		}
	}
	instances = append(instances, instance{bilinear.Strassen(), 5}, instance{bilinear.Winograd(), 4})
	for _, in := range instances {
		g, err := New(in.alg, in.r)
		if err != nil {
			t.Fatal(err)
		}
		var buf []Edge
		for v := V(0); int(v) < g.NumVertices(); v++ {
			buf = g.AppendParents(v, buf[:0])
			row := g.ParentRow(v)
			if len(row) != len(buf) || cap(row) != len(row) {
				t.Fatalf("%s r=%d: %s has row len %d cap %d, want %d parents",
					in.alg.Name, in.r, g.Label(v), len(row), cap(row), len(buf))
			}
			for i, e := range buf {
				if row[i] != e.To {
					t.Fatalf("%s r=%d: %s parent %d is %s in the row, %s from AppendParents",
						in.alg.Name, in.r, g.Label(v), i, g.Label(row[i]), g.Label(e.To))
				}
				if i > 0 && row[i] <= row[i-1] {
					t.Fatalf("%s r=%d: %s row is not strictly ascending: parent %d is %s after %s",
						in.alg.Name, in.r, g.Label(v), i, g.Label(row[i]), g.Label(row[i-1]))
				}
			}
		}
		if last := g.parentPtr[g.NumVertices()]; last != int64(len(g.parentNbr)) {
			t.Fatalf("%s r=%d: rows end at edge %d of %d", in.alg.Name, in.r, last, len(g.parentNbr))
		}
	}
}

// BenchmarkBuildAdjacency times building the CSR parent index of
// Strassen G_5, the graph of the routecheck-k5 and job-k5 workloads.
func BenchmarkBuildAdjacency(b *testing.B) {
	g, err := New(bilinear.Strassen(), 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.buildAdjacency()
	}
}
