package cdag

// Value classes: the generalization of meta-vertices needed for the
// paper's Section 8 conjecture. The standing assumption of Theorem 1 is
// that every *nontrivial* linear combination feeds one multiplication;
// when it is violated (e.g. Strassen⊗classical), distinct products
// share identical combination rows and this package's G_r represents
// the shared value at several vertices. In the paper's "one vertex per
// value" model those vertices are one vertex. A *value class* groups
// vertices that provably carry the same value because their defining
// coefficient structures are identical:
//
//   - encoding vertices whose product coordinates have slot-wise equal
//     encoding rows (and equal entry suffixes);
//   - product vertices whose coordinates have slot-wise equal (U, V)
//     row pairs;
//   - decoding vertices whose product-prefix coordinates are
//     product-equivalent (and equal output suffixes).
//
// ValueRoot returns a canonical representative per class (coordinates
// canonicalized, then copy chains followed downward as in MetaRoot).
// For algorithms satisfying the standing assumption, ValueRoot and
// MetaRoot coincide; the difference is exactly the Section 8 gap, and
// internal/routing measures routing loads per value class to test the
// conjecture empirically.

import "strconv"

// rowClasses returns, for each product, the smallest product with an
// identical row in m.
func rowClasses(m [][]nz) []int32 {
	rep := make([]int32, len(m))
	seen := map[string]int32{}
	for t, row := range m {
		key := nzKey(row)
		if r, ok := seen[key]; ok {
			rep[t] = r
		} else {
			seen[key] = int32(t)
			rep[t] = int32(t)
		}
	}
	return rep
}

// nzKey encodes a sparse row injectively: distinct rows always produce
// distinct keys. The index is rendered in decimal — an earlier byte(idx)
// encoding truncated it mod 256, so two entries whose indices agree mod
// 256 and share a coefficient collided, silently merging distinct value
// classes (and every routing statistic computed per class with them).
// The ':' and ',' delimiters cannot appear inside a decimal integer or
// a rat.Rat rendering ("-3/7"), so the field boundaries are unambiguous.
func nzKey(row []nz) string {
	buf := make([]byte, 0, 12*len(row))
	for _, e := range row {
		buf = strconv.AppendInt(buf, int64(e.idx), 10)
		buf = append(buf, ':')
		buf = append(buf, e.c.String()...)
		buf = append(buf, ',')
	}
	return string(buf)
}

// valueReps lazily computes the three product-equivalence tables
// (thread-safe: verification code calls ValueRoot from worker pools).
func (g *Graph) valueReps() (repA, repB, repP []int32) {
	g.repOnce.Do(func() {
		g.repA = rowClasses(g.uRows)
		g.repB = rowClasses(g.vRows)
		g.repP = make([]int32, g.b)
		type pair struct{ a, b int32 }
		seen := map[pair]int32{}
		for t := 0; t < g.b; t++ {
			p := pair{g.repA[t], g.repB[t]}
			if r, ok := seen[p]; ok {
				g.repP[t] = r
			} else {
				seen[p] = int32(t)
				g.repP[t] = int32(t)
			}
		}
	})
	return g.repA, g.repB, g.repP
}

// ValueRoot returns the canonical representative of v's value class.
func (g *Graph) ValueRoot(v V) V {
	repA, repB, repP := g.valueReps()
	kind, rank, idx := g.Locate(v)
	var rep []int32
	switch kind {
	case EncA:
		rep = repA
	case EncB:
		rep = repB
	default:
		rep = repP
	}
	// Canonicalize the product coordinates of the label.
	var tLen int
	var suffixPow int64
	if kind == Dec {
		tLen = g.R - rank
		suffixPow = g.powA[rank]
	} else {
		tLen = rank
		suffixPow = g.powA[g.R-rank]
	}
	tPart := idx / suffixPow
	suffix := idx % suffixPow
	// Replace each base-b digit of tPart by its representative, from
	// the low digit up.
	var canon int64
	for l := 0; l < tLen; l++ {
		canon += int64(rep[tPart%int64(g.b)]) * g.powB[l]
		tPart /= int64(g.b)
	}
	cv := g.ID(kind, rank, canon*suffixPow+suffix)
	// Copies still collapse downward within the canonical labels.
	return g.MetaRoot(cv)
}

// HasValueSharing reports whether the algorithm has distinct products
// with identical encoding rows on some side — i.e. whether ValueRoot
// differs from MetaRoot anywhere (the Section 8 regime).
func (g *Graph) HasValueSharing() bool {
	repA, repB, _ := g.valueReps()
	for t := 0; t < g.b; t++ {
		if int(repA[t]) != t || int(repB[t]) != t {
			return true
		}
	}
	return false
}
