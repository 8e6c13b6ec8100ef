package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: nearestRank must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{10, 0.5, 5, 5},
		{11, 0.5, 6, 5},
		{10, 0.9, 9, 1},
		{10, 0.99, 10, 0},
		{1, 0.5, 1, 0},
		{100, 0.9, 90, 10},
		{1000, 0.99, 990, 10},
		{100, 0.07, 7, 93},
	} {
		v, beyond, ok := nearestRank(seq(c.n), c.q)
		if !ok || v != c.want || beyond != c.wantBeyond {
			t.Errorf("nearestRank(1..%d, %g) = %g, %d beyond, %t; want %g, %d beyond",
				c.n, c.q, v, beyond, ok, c.want, c.wantBeyond)
		}
	}
	if _, _, ok := nearestRank(nil, 0.5); ok {
		t.Error("nearestRank of an empty sample reported a value")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true},
		{99, 0.9, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if _, ok := percentile(seq(c.n), c.q); ok != c.want {
			t.Errorf("percentile(%d samples, %g) reported = %t, want %t", c.n, c.q, ok, c.want)
		}
	}
}

func TestTailPicksHighestReportable(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantQ  float64
		wantOK bool
	}{
		{10000, 0.999, true},
		{5000, 0.99, true},
		{500, 0.9, true},
		{50, 0, false},
	} {
		q, _, ok := tail(seq(c.n))
		if q != c.wantQ || ok != c.wantOK {
			t.Errorf("tail(%d samples) = p%g, %t; want p%g, %t", c.n, q*100, ok, c.wantQ*100, c.wantOK)
		}
	}
	if m := median(seq(7)); m != 4 {
		t.Errorf("median(1..7) = %g, want 4", m)
	}
}
