package pebble

import (
	"math"
	"math/rand"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/schedule"
)

// TestSegmentEvaluatorMatchesReference checks the dense evaluator
// against MetaClosure + ComputeBoundary on random segments of random
// schedules of every catalog algorithm: the same S′ membership for
// every vertex and the same R, W and δ′. One evaluator serves all of a
// graph's segments, so stale stamps from earlier segments would show.
// The last rounds start just below the uint32 epoch limit, so the
// wrap-around clears are exercised too.
func TestSegmentEvaluatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, alg := range bilinear.All() {
		for r := 1; r <= 2; r++ {
			g := mustGraph(t, alg, r)
			sched, err := schedule.RandomTopological(g, rng)
			if err != nil {
				t.Fatal(err)
			}
			ev := NewSegmentEvaluator(g)
			for trial := 0; trial < 40; trial++ {
				if trial == 30 {
					ev.sEpoch, ev.bEpoch = math.MaxUint32-2, math.MaxUint32-3
				}
				lo := rng.Intn(len(sched))
				hi := lo + 1 + rng.Intn(min(len(sched)-lo, 1+rng.Intn(200)))
				seg := sched[lo:hi]
				want := MetaClosure(g, seg)
				ev.Close(seg)
				for v := cdag.V(0); int(v) < g.NumVertices(); v++ {
					if ev.Has(v) != want.Has(v) {
						t.Fatalf("%s r=%d [%d,%d): Has(%s) = %v, MetaClosure says %v",
							alg.Name, r, lo, hi, g.Label(v), ev.Has(v), want.Has(v))
					}
				}
				if len(ev.set) != len(want) {
					t.Fatalf("%s r=%d [%d,%d): |S′| = %d, MetaClosure has %d", alg.Name, r, lo, hi, len(ev.set), len(want))
				}
				wb := ComputeBoundary(g, want)
				if got := ev.Boundary(); got != wb {
					t.Fatalf("%s r=%d [%d,%d): Boundary() = %+v, ComputeBoundary = %+v", alg.Name, r, lo, hi, got, wb)
				}
				if got := ev.Boundary(); got != wb {
					t.Fatalf("%s r=%d [%d,%d): second Boundary() = %+v, want %+v", alg.Name, r, lo, hi, got, wb)
				}
			}
		}
	}
}

// TestSegmentEvaluatorEmptyBeforeClose: a fresh evaluator holds the
// empty segment, whose boundary is empty.
func TestSegmentEvaluatorEmptyBeforeClose(t *testing.T) {
	g := mustGraph(t, bilinear.Strassen(), 2)
	ev := NewSegmentEvaluator(g)
	for v := cdag.V(0); int(v) < g.NumVertices(); v++ {
		if ev.Has(v) {
			t.Fatalf("fresh evaluator has %s", g.Label(v))
		}
	}
	if b := ev.Boundary(); b != (Boundary{}) {
		t.Fatalf("empty segment boundary %+v", b)
	}
}
