package cdag

// CSR adjacency index. Parents and children of a vertex are computed
// arithmetically in O(degree) (see AppendParents), which is ideal for
// one-shot traversals but makes membership queries — "is u a parent of
// v?" — allocate and scan a fresh edge slice per call. The routing
// verifiers ask that question for every edge of every sampled path, and
// the pebble simulator and segment certifier walk every vertex's
// parents several times per run, so the index materializes all parent
// edges once, in compressed sparse row form: membership is a scan of a
// short sorted row, and ParentRow hands out the row itself.
//
// The index is built lazily on first use and shared by every caller.
// It stores one int32 per edge plus one int64 per vertex, which for
// every graph New admits (IDs fit int32) is a few hundred MB at the
// extreme and typically far less. The build synthesizes the rows layer
// by layer, in ID order, from the sparse U/V/W rows — the same
// arithmetic as AppendParents without its per-vertex Locate and ID
// range checks — and sizes the edge array from the layers' row lengths
// up front, so it writes each row once. AppendParents stays the oracle:
// the rows are bit-identical to its output, order included. For
// Strassen G_5 (113,553 vertices) on a 2-core Xeon VM the build takes
// about 0.9 ms and 2 allocations, the two index arrays
// (BenchmarkBuildAdjacency); calling AppendParents twice per vertex
// took 8–10 ms.

// buildAdjacency materializes the parent adjacency of every vertex in
// CSR form. Each row lists the parents in ascending ID order, as
// AppendParents does: an encoding or decoding row follows its base row
// in increasing entry index, hence increasing parent ID, and a
// product's row lists its EncA parent before its EncB parent.
func (g *Graph) buildAdjacency() {
	r, a, b := g.R, int64(g.a), int64(g.b)
	rowEdges := func(rows [][]nz) (n int64) {
		for _, row := range rows {
			n += int64(len(row))
		}
		return n
	}
	// Edge count: encoding rank j has b^(j-1)·a^(r-j) vertices per base
	// row t, each with len(rows[t]) parents; decoding rank j likewise
	// per output entry o; products have two.
	edges := 2 * g.powB[r]
	for j := 1; j <= r; j++ {
		edges += g.powB[j-1] * g.powA[r-j] * (rowEdges(g.uRows) + rowEdges(g.vRows))
		edges += g.powB[r-j] * g.powA[j-1] * rowEdges(g.wRows)
	}
	ptr := make([]int64, g.total+1)
	nbr := make([]V, edges)
	// v counts the rows closed so far and n the edges written: closing
	// vertex v's row sets ptr[v+1] = n.
	v, n := int64(0), int64(0)
	for _, enc := range [2]struct {
		off  []int64
		rows [][]nz
	}{{g.offEncA, g.uRows}, {g.offEncB, g.vRows}} {
		for range g.powA[r] { // rank 0: the inputs have no parents
			v++
			ptr[v] = n
		}
		for j := 1; j <= r; j++ {
			// Vertex (tPrefix, t, suffix) at rank j has the parents
			// off[j-1] + tPrefix·a^(r-j+1) + e·a^(r-j) + suffix.
			aPow, parentAPow, base := g.powA[r-j], g.powA[r-j+1], enc.off[j-1]
			for tPrefix := range g.powB[j-1] {
				for t := range b {
					for suffix := range aPow {
						p := base + tPrefix*parentAPow + suffix
						for _, e := range enc.rows[t] {
							nbr[n] = V(p + int64(e.idx)*aPow)
							n++
						}
						v++
						ptr[v] = n
					}
				}
			}
		}
	}
	for t := range g.powB[r] { // the products
		nbr[n], nbr[n+1] = V(g.offEncA[r]+t), V(g.offEncB[r]+t)
		n += 2
		v++
		ptr[v] = n
	}
	for j := 1; j <= r; j++ {
		// Vertex (tPrefix, o, suffix) at decoding rank j has the parents
		// offDec[j-1] + (tPrefix·b + e)·a^(j-1) + suffix.
		oPow, base := g.powA[j-1], g.offDec[j-1]
		for tPrefix := range g.powB[r-j] {
			for o := range a {
				for suffix := range oPow {
					p := base + tPrefix*b*oPow + suffix
					for _, e := range g.wRows[o] {
						nbr[n] = V(p + int64(e.idx)*oPow)
						n++
					}
					v++
					ptr[v] = n
				}
			}
		}
	}
	g.parentPtr, g.parentNbr = ptr, nbr
}

// EnsureAdjacencyIndex builds the CSR adjacency index now instead of on
// the first HasEdge/Adjacent call. Call it before timing or before
// spawning workers so the one-time construction cost is paid up front
// (construction is safe under concurrent use either way).
func (g *Graph) EnsureAdjacencyIndex() { g.adjOnce.Do(g.buildAdjacency) }

// ParentRow returns v's parents in strictly ascending ID order, which
// is the order AppendParents lists them in, as a view into the CSR
// index (built on first call): a parent occurs once per row, because
// the rows come from the algorithm's dense coefficient matrices. The
// row is shared: callers must not modify it.
func (g *Graph) ParentRow(v V) []V {
	g.adjOnce.Do(g.buildAdjacency)
	lo, hi := g.parentPtr[v], g.parentPtr[v+1]
	return g.parentNbr[lo:hi:hi]
}

// parentRowContains reports whether parent appears in v's CSR parent
// row. Rows are sorted and short (max in-degree is a base-graph
// constant), so a linear scan with early exit beats binary search.
func (g *Graph) parentRowContains(v, parent V) bool {
	row := g.parentNbr[g.parentPtr[v]:g.parentPtr[v+1]]
	for _, p := range row {
		if p >= parent {
			return p == parent
		}
	}
	return false
}

// HasEdge reports whether G has the directed edge parent → child, using
// the CSR index (built on first call).
func (g *Graph) HasEdge(parent, child V) bool {
	g.adjOnce.Do(g.buildAdjacency)
	return g.parentRowContains(child, parent)
}

// Adjacent reports whether u and v are joined by an edge in either
// direction — the undirected adjacency the routings care about (paths
// may traverse edges against their orientation).
func (g *Graph) Adjacent(u, v V) bool {
	g.adjOnce.Do(g.buildAdjacency)
	return g.parentRowContains(v, u) || g.parentRowContains(u, v)
}
