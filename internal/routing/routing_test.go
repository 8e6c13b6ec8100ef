package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/hall"
)

func mustRouter(t testing.TB, alg *bilinear.Algorithm, k int) *Router {
	t.Helper()
	g, err := cdag.New(alg, k)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBaseMatchingStrassen(t *testing.T) {
	bm, err := NewBaseMatching(bilinear.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	maxUse, err := bm.VerifyCapacities()
	if err != nil {
		t.Fatal(err)
	}
	if maxUse > 2 {
		t.Errorf("max product use %d > n0 = 2", maxUse)
	}
	// Every guaranteed dep matched to an adjacent product.
	alg := bilinear.Strassen()
	for _, side := range []bilinear.Side{bilinear.SideA, bilinear.SideB} {
		for _, d := range GuaranteedBaseDeps(alg, side) {
			m := bm.MatchA(d[0], d[1])
			if side == bilinear.SideB {
				m = bm.MatchB(d[0], d[1])
			}
			if m < 0 {
				t.Fatalf("side %v dep %v unmatched", side, d)
			}
			ok := false
			for _, tt := range DepProducts(alg, side, d[0], d[1]) {
				if tt == m {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("side %v dep %v matched to non-adjacent product %d", side, d, m)
			}
		}
	}
	// Non-guaranteed pairs are -1.
	if bm.MatchA(0, 2) != -1 { // a11 -> c21: rows differ
		t.Error("non-guaranteed A dep matched")
	}
}

func TestBaseMatchingAllCatalog(t *testing.T) {
	// Lemma 5 ⇒ the matching exists for every *correct* algorithm
	// (including, empirically, the catalog entries violating the
	// one-multiplication assumption).
	for _, alg := range bilinear.All() {
		bm, err := NewBaseMatching(alg)
		if err != nil {
			t.Errorf("%s: %v", alg.Name, err)
			continue
		}
		if _, err := bm.VerifyCapacities(); err != nil {
			t.Errorf("%s: %v", alg.Name, err)
		}
	}
}

func TestLemma5HallConditionExhaustive(t *testing.T) {
	// Exhaustive Hall check with capacity n₀ over all subsets of
	// guaranteed deps, for the n₀ = 2 algorithms (|X| = 8).
	for _, alg := range []*bilinear.Algorithm{bilinear.Strassen(), bilinear.Winograd(), bilinear.Classical(2)} {
		for _, side := range []bilinear.Side{bilinear.SideA, bilinear.SideB} {
			deps := GuaranteedBaseDeps(alg, side)
			viol := hall.CheckHall(len(deps), alg.B(),
				func(x int) []int { return DepProducts(alg, side, deps[x][0], deps[x][1]) },
				func(int) int { return alg.N0 })
			if viol != nil {
				t.Errorf("%s side %v: Hall condition violated at %v", alg.Name, side, viol)
			}
		}
	}
}

func TestLemma5ViolationDetectedOnBrokenGraph(t *testing.T) {
	// An (incorrect) base graph in which three guaranteed dependencies
	// can only route through one product must yield a Hall violation —
	// the computational content of Lemma 5's contradiction.
	alg := bilinear.Strassen()
	// Cripple the decoding: outputs 0 and 1 depend only on product 0.
	for tt := 1; tt < alg.B(); tt++ {
		alg.W[0][tt] = alg.W[0][0].Sub(alg.W[0][0]) // zero
		alg.W[1][tt] = alg.W[1][tt].Sub(alg.W[1][tt])
	}
	if _, err := NewBaseMatching(alg); err == nil {
		t.Fatal("crippled algorithm should fail the Hall matching")
	}
}

func TestChainShape(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	g := r.G
	chain, ok := r.AppendChain(bilinear.SideA, 0, 1, nil) // a(0,0)->c(0,1): guaranteed
	if !ok {
		t.Fatal("dep should be guaranteed")
	}
	if len(chain) != 2*2+2 {
		t.Fatalf("chain length %d", len(chain))
	}
	if chain[0] != g.InputA(0) || chain[len(chain)-1] != g.Output(1) {
		t.Fatal("chain endpoints wrong")
	}
	if _, ok := r.AppendChain(bilinear.SideA, 0, 2, nil); ok {
		// output c(1,0): its trailing row digit differs from a(0,0)'s
		t.Fatal("non-guaranteed dep routed")
	}
}

func TestGuaranteedPredicates(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	// a entry (row=0,col=0) multi-index packed 0; outputs with row 0.
	if !r.GuaranteedA(0, 0) || !r.GuaranteedA(0, 1) {
		t.Error("A deps with equal rows must be guaranteed")
	}
	if r.GuaranteedA(0, 2) { // c(1,0): row differs in slot 2
		t.Error("A dep with different row accepted")
	}
	if !r.GuaranteedB(0, 0) || !r.GuaranteedB(1, 1) {
		t.Error("B deps with equal cols must be guaranteed")
	}
	if r.GuaranteedB(0, 1) {
		t.Error("B dep with different col accepted")
	}
}

func TestLemma3RoutingBounds(t *testing.T) {
	cases := []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 1},
		{bilinear.Strassen(), 2},
		{bilinear.Strassen(), 3},
		{bilinear.Winograd(), 2},
		{bilinear.Classical(2), 2},
		{bilinear.StrassenSquared(), 1},
		{bilinear.DisconnectedFast(), 1},
	}
	lad, err := bilinear.Laderman()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		alg *bilinear.Algorithm
		k   int
	}{lad, 1})
	for _, c := range cases {
		r := mustRouter(t, c.alg, c.k)
		st, err := r.VerifyGuaranteedRouting()
		if err != nil {
			t.Errorf("%s k=%d: %v", c.alg.Name, c.k, err)
			continue
		}
		// Number of guaranteed deps per side: n0^(3k); two sides.
		n03k := int64(1)
		for i := 0; i < 3*c.k; i++ {
			n03k *= int64(c.alg.N0)
		}
		if st.NumPaths != 2*n03k {
			t.Errorf("%s k=%d: %d chains, want %d", c.alg.Name, c.k, st.NumPaths, 2*n03k)
		}
	}
}

func TestRoutingTheoremBounds(t *testing.T) {
	cases := []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 1},
		{bilinear.Strassen(), 2},
		{bilinear.Strassen(), 3},
		{bilinear.Winograd(), 2},
		{bilinear.Classical(2), 2},
		{bilinear.StrassenSquared(), 1},
		{bilinear.DisconnectedFast(), 1},
	}
	lad, err := bilinear.Laderman()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		alg *bilinear.Algorithm
		k   int
	}{lad, 1})
	for _, c := range cases {
		r := mustRouter(t, c.alg, c.k)
		st, err := r.VerifyFullRouting()
		if err != nil {
			t.Errorf("%s k=%d: %v", c.alg.Name, c.k, err)
			continue
		}
		aK := int64(1)
		for i := 0; i < c.k; i++ {
			aK *= int64(c.alg.A())
		}
		if st.NumPaths != 2*aK*aK {
			t.Errorf("%s k=%d: %d paths, want %d", c.alg.Name, c.k, st.NumPaths, 2*aK*aK)
		}
		if st.MaxVertexHits == 0 {
			t.Errorf("%s k=%d: no hits recorded", c.alg.Name, c.k)
		}
	}
}

func TestLemma4ChainUsageExact(t *testing.T) {
	for _, c := range []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 1},
		{bilinear.Strassen(), 2},
		{bilinear.Strassen(), 3},
		{bilinear.Classical(3), 1},
	} {
		r := mustRouter(t, c.alg, c.k)
		if err := r.VerifyChainUsage(); err != nil {
			t.Errorf("%s k=%d: %v", c.alg.Name, c.k, err)
		}
	}
}

func TestPairPathLengthAndEndpoints(t *testing.T) {
	r := mustRouter(t, bilinear.Winograd(), 2)
	g := r.G
	count := 0
	r.ForEachPairPath(func(side bilinear.Side, in, out int64, path []cdag.V) {
		count++
		if len(path) != 3*(2*2+2)-2 {
			t.Fatalf("path length %d", len(path))
		}
		want := g.InputA(in)
		if side == bilinear.SideB {
			want = g.InputB(in)
		}
		if path[0] != want || path[len(path)-1] != g.Output(out) {
			t.Fatalf("endpoints wrong for side %v in=%d out=%d", side, in, out)
		}
	})
	if count != 2*16*16 {
		t.Fatalf("pair path count %d", count)
	}
}

func TestClaim1StrassenDecodingRouting(t *testing.T) {
	for k := 1; k <= 3; k++ {
		g, err := cdag.New(bilinear.Strassen(), k)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := NewDecodingRouter(g)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dr.VerifyClaim1()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want7k := int64(1)
		for i := 0; i < k; i++ {
			want7k *= 7
		}
		if st.NumPaths != want7k*int64(1<<(2*k)) {
			t.Errorf("k=%d: %d paths", k, st.NumPaths)
		}
	}
}

func TestClaim1FailsOnDisconnectedDecoding(t *testing.T) {
	for _, alg := range []*bilinear.Algorithm{bilinear.Classical(2), bilinear.DisconnectedFast()} {
		g, err := cdag.New(alg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewDecodingRouter(g); err == nil {
			t.Errorf("%s: decoding router must fail on disconnected D₁", alg.Name)
		}
	}
}

func TestCountBoundaryCrossing(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 1)
	// S = everything: no crossings. S = nothing: no crossings.
	if got := r.CountBoundaryCrossing(func(cdag.V) bool { return true }); got != 0 {
		t.Errorf("full S crossings = %d", got)
	}
	if got := r.CountBoundaryCrossing(func(cdag.V) bool { return false }); got != 0 {
		t.Errorf("empty S crossings = %d", got)
	}
	// S = one output: every path touching that output crosses; there are
	// 2a^k inputs routing to it, and paths to other outputs may pass
	// through it too.
	g := r.G
	target := g.Output(0)
	got := r.CountBoundaryCrossing(func(v cdag.V) bool { return v == target })
	if got < 2*4 {
		t.Errorf("single-output crossings = %d, want ≥ 8", got)
	}
}

func TestRouterWithMismatchedMatching(t *testing.T) {
	bm, err := NewBaseMatching(bilinear.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	g, err := cdag.New(bilinear.Winograd(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouterWithMatching(g, bm); err == nil {
		t.Fatal("mismatched algorithm accepted")
	}
}

func TestSection8ValueClassRouting(t *testing.T) {
	// The empirical test of the paper's Section 8 conjecture: with
	// vertices identified by value (the paper's one-vertex-per-value
	// model), the 6aᵏ bound still holds — including for disconnected56,
	// which violates the standing assumption.
	for _, c := range []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 2},
		{bilinear.Classical(2), 2},
		{bilinear.DisconnectedFast(), 1},
		{bilinear.DisconnectedFast(), 2},
	} {
		r := mustRouter(t, c.alg, c.k)
		st, err := r.VerifyValueClassRouting()
		if err != nil {
			t.Errorf("%s k=%d: %v", c.alg.Name, c.k, err)
			continue
		}
		if st.MaxMetaHits == 0 {
			t.Errorf("%s k=%d: no hits", c.alg.Name, c.k)
		}
	}
}

func TestPipelineOnRandomOrbitAlgorithms(t *testing.T) {
	// Property-based end-to-end check: draw verified algorithms from
	// the symmetry orbit of Strassen's (arbitrary coefficient
	// structure, fresh copying patterns) and run the full pipeline —
	// CDAG numeric validation, Hall matching, Lemma 3 chains, the
	// Routing Theorem, and Lemma 4 usage counts.
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 5; trial++ {
		alg, err := bilinear.RandomAlgorithm(rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		alg.Name = fmt.Sprintf("%s#%d", alg.Name, trial)
		g, err := cdag.New(alg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(rng); err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		r, err := NewRouter(g)
		if err != nil {
			t.Fatalf("%s: matching: %v", alg.Name, err)
		}
		if _, err := r.VerifyGuaranteedRouting(); err != nil {
			t.Errorf("%s: Lemma 3: %v", alg.Name, err)
		}
		if _, err := r.VerifyFullRouting(); err != nil {
			t.Errorf("%s: Theorem 2: %v", alg.Name, err)
		}
		if err := r.VerifyChainUsage(); err != nil {
			t.Errorf("%s: Lemma 4: %v", alg.Name, err)
		}
		if _, err := r.VerifyValueClassRouting(); err != nil {
			t.Errorf("%s: Section 8: %v", alg.Name, err)
		}
	}
}

func TestParallelVerificationMatchesSequential(t *testing.T) {
	for _, c := range []struct {
		alg *bilinear.Algorithm
		k   int
	}{
		{bilinear.Strassen(), 3},
		{bilinear.Winograd(), 2},
		{bilinear.DisconnectedFast(), 1},
	} {
		r := mustRouter(t, c.alg, c.k)
		seq, err := r.VerifyFullRouting()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 0} {
			par, err := r.VerifyFullRoutingParallel(workers)
			if err != nil {
				t.Fatalf("%s k=%d workers=%d: %v", c.alg.Name, c.k, workers, err)
			}
			if par.NumPaths != seq.NumPaths || par.MaxVertexHits != seq.MaxVertexHits ||
				par.MaxMetaHits != seq.MaxMetaHits || par.TotalHits != seq.TotalHits {
				t.Fatalf("%s k=%d workers=%d: parallel %+v != sequential %+v",
					c.alg.Name, c.k, workers, par, seq)
			}
		}
	}
}
