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
// Building walks the graph twice (count, then fill) and stores one
// int32 per edge plus one int64 per vertex, which for every graph New
// admits (IDs fit int32) is a few hundred MB at the extreme and
// typically far less. AppendParents emits each row in ascending ID
// order already, so the build checks that order instead of sorting
// each row. For Strassen G_5 (113,553 vertices) on a 2-core Xeon VM it
// takes about 10 ms and 5 allocations (the two index arrays and the
// scratch edge buffer); a per-row sort.Slice made it ~25 ms and
// 204,019 allocations.

import "slices"

// buildAdjacency materializes the parent adjacency of every vertex in
// CSR form with each row sorted ascending. Encoding and decoding rows
// come out of AppendParents in increasing base-row index, hence
// increasing parent ID, and a product's row lists its EncA parent
// before its EncB parent, so the sort is a fallback that never runs on
// a graph New built.
func (g *Graph) buildAdjacency() {
	ptr := make([]int64, g.total+1)
	var buf []Edge
	for v := V(0); int64(v) < g.total; v++ {
		buf = g.AppendParents(v, buf[:0])
		ptr[v+1] = ptr[v] + int64(len(buf))
	}
	nbr := make([]V, ptr[g.total])
	for v := V(0); int64(v) < g.total; v++ {
		buf = g.AppendParents(v, buf[:0])
		row := nbr[ptr[v]:ptr[v+1]]
		for i, e := range buf {
			row[i] = e.To
		}
		if !slices.IsSorted(row) {
			slices.Sort(row)
		}
	}
	g.parentPtr, g.parentNbr = ptr, nbr
}

// EnsureAdjacencyIndex builds the CSR adjacency index now instead of on
// the first HasEdge/Adjacent call. Call it before timing or before
// spawning workers so the one-time construction cost is paid up front
// (construction is safe under concurrent use either way).
func (g *Graph) EnsureAdjacencyIndex() { g.adjOnce.Do(g.buildAdjacency) }

// ParentRow returns v's parents in ascending ID order, which is the
// order AppendParents lists them in, as a view into the CSR index
// (built on first call). The row is shared: callers must not modify
// it.
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
