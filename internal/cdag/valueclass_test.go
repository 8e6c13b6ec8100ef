package cdag

// Tests for the value-class equivalence layer. The key encoder is the
// foundation everything class-shaped rests on (rowClasses, ValueRoot,
// and through them the Section 8 routing checks), so its injectivity is
// pinned both by a targeted regression and by a fuzz target in the
// style of internal/rat's.

import (
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/rat"
)

// TestNzKeyDistinguishesIndicesModulo256 is the regression test for the
// byte(idx) truncation bug: indices 1 and 257 agree mod 256, so with a
// one-byte index encoding two rows sharing a coefficient produced the
// same key and rowClasses silently merged distinct products into one
// value class.
func TestNzKeyDistinguishesIndicesModulo256(t *testing.T) {
	one := rat.New(1, 1)
	rowLo := []nz{{idx: 1, c: one}}
	rowHi := []nz{{idx: 257, c: one}}
	if nzKey(rowLo) == nzKey(rowHi) {
		t.Fatalf("nzKey collides on indices 1 and 257: %q", nzKey(rowLo))
	}
	// The merge the collision caused, end to end: rowClasses must keep
	// the two rows in separate classes.
	rep := rowClasses([][]nz{rowLo, rowHi})
	if rep[0] == rep[1] {
		t.Fatalf("rowClasses merged rows with indices 1 and 257 (rep=%v)", rep)
	}
	// Sanity: genuinely identical rows still share a class.
	rep = rowClasses([][]nz{rowLo, {{idx: 1, c: one}}})
	if rep[0] != rep[1] {
		t.Fatalf("rowClasses split identical rows (rep=%v)", rep)
	}
}

// fuzzRow builds a normalized sparse row from fuzzer-chosen raw fields:
// strictly increasing indices (as sparseRows produces) and nonzero
// denominators.
func fuzzRow(idx0, idx1 uint16, n0, n1 int16, d0, d1 uint8, two bool) []nz {
	row := []nz{{idx: int(idx0), c: rat.New(int64(n0), int64(d0%100)+1)}}
	if two && int(idx1) > int(idx0) {
		row = append(row, nz{idx: int(idx1), c: rat.New(int64(n1), int64(d1%100)+1)})
	}
	return row
}

func rowsEqual(x, y []nz) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i].idx != y[i].idx || !x[i].c.Equal(y[i].c) {
			return false
		}
	}
	return true
}

// FuzzNzKeyInjectivity checks the invariant rowClasses depends on:
// nzKey(x) == nzKey(y) exactly when the rows are equal. The seed corpus
// includes the mod-256 collision pair the regression test pins.
func FuzzNzKeyInjectivity(f *testing.F) {
	f.Add(uint16(1), uint16(0), int16(1), int16(0), uint8(0), uint8(0), false,
		uint16(257), uint16(0), int16(1), int16(0), uint8(0), uint8(0), false)
	f.Add(uint16(3), uint16(300), int16(-2), int16(5), uint8(6), uint8(7), true,
		uint16(3), uint16(300), int16(-2), int16(5), uint8(6), uint8(7), true)
	f.Add(uint16(12), uint16(268), int16(1), int16(1), uint8(0), uint8(0), true,
		uint16(268), uint16(0), int16(1), int16(0), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T,
		xi0, xi1 uint16, xn0, xn1 int16, xd0, xd1 uint8, xTwo bool,
		yi0, yi1 uint16, yn0, yn1 int16, yd0, yd1 uint8, yTwo bool) {
		x := fuzzRow(xi0, xi1, xn0, xn1, xd0, xd1, xTwo)
		y := fuzzRow(yi0, yi1, yn0, yn1, yd0, yd1, yTwo)
		same, keysSame := rowsEqual(x, y), nzKey(x) == nzKey(y)
		if same != keysSame {
			t.Fatalf("rows equal=%v but keys equal=%v\nx=%v key %q\ny=%v key %q",
				same, keysSame, x, nzKey(x), y, nzKey(y))
		}
	})
}

// TestValueRootAllocationFree requires ValueRoot to allocate nothing
// once the class tables exist: the routing checks call it once per
// distinct chain vertex.
func TestValueRootAllocationFree(t *testing.T) {
	g, err := New(bilinear.DisconnectedFast(), 3)
	if err != nil {
		t.Fatal(err)
	}
	g.ValueRoot(0) // builds the class tables
	var sink V
	allocs := testing.AllocsPerRun(5, func() {
		for v := V(0); int(v) < g.NumVertices(); v++ {
			sink ^= g.ValueRoot(v)
		}
	})
	if allocs != 0 {
		t.Errorf("ValueRoot over every vertex of %s r=3 allocates %v times, want 0", g.Alg.Name, allocs)
	}
}
