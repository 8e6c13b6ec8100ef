package core

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/schedule"
)

// certifyGoldenLines renders, one line each, the certificates of the
// golden sweep: Certify in relaxed mode for every catalog algorithm at
// small depths, DFS and seeded random schedules, K ∈ {1,2} and targets
// 2, 4, 8 (or the error it returned); deep routing verification;
// Certify with the paper's constants; CertifyParallel; and
// CertifySection5. Per-segment reports enter through a hash.
func certifyGoldenLines(t testing.TB) []string {
	graph := func(alg *bilinear.Algorithm, r int) *cdag.Graph {
		g, err := cdag.New(alg, r)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	random := func(g *cdag.Graph) []cdag.V {
		s, err := schedule.RandomTopological(g, rand.New(rand.NewSource(int64(g.R))))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	certLine := func(id string, cert *Certificate, err error) string {
		if err != nil {
			return fmt.Sprintf("%s err=%v", id, err)
		}
		h := fnv.New64a()
		for _, s := range cert.Segments {
			fmt.Fprintf(h, "%d,%d,%d,%d,%d;", s.Start, s.End, s.Counted, s.DeltaMeta, s.CrossingPaths)
		}
		return fmt.Sprintf("%s collection=%d counted=%d segments=%d minratio=%v certified=%d reports=%d hash=%016x",
			id, cert.CollectionSize, cert.CountedTotal, cert.CompleteSegments, cert.MinDeltaRatio,
			cert.CertifiedIO, len(cert.Segments), h.Sum64())
	}

	var lines []string
	maxR := map[string]int{
		"classical2": 4, "classical3": 2, "strassen": 4, "winograd": 4,
		"strassen2": 2, "disconnected56": 2, "laderman": 2,
	}
	for _, alg := range bilinear.All() {
		for r := 1; r <= maxR[alg.Name]; r++ {
			g := graph(alg, r)
			for _, sc := range []struct {
				name  string
				sched []cdag.V
			}{{"dfs", schedule.RecursiveDFS(g)}, {"random", random(g)}} {
				for _, k := range []int{1, 2} {
					for _, target := range []int64{2, 4, 8} {
						cert, err := Certify(g, sc.sched, Options{K: k, RelaxedTarget: target})
						lines = append(lines, certLine(fmt.Sprintf("%s r=%d %s K=%d target=%d", alg.Name, r, sc.name, k, target), cert, err))
					}
				}
			}
		}
	}
	for _, tc := range []struct {
		alg *bilinear.Algorithm
		r   int
	}{{bilinear.Strassen(), 3}, {bilinear.Strassen(), 4}, {bilinear.Winograd(), 4}, {bilinear.Classical(2), 4}} {
		g := graph(tc.alg, tc.r)
		cert, err := Certify(g, schedule.RecursiveDFS(g), Options{K: 2, RelaxedTarget: 8, DeepSegments: 4})
		lines = append(lines, certLine(fmt.Sprintf("%s r=%d dfs K=2 target=8 deep=4", tc.alg.Name, tc.r), cert, err))
	}
	g5 := graph(bilinear.Strassen(), 5)
	dfs5 := schedule.RecursiveDFS(g5)
	cert, err := Certify(g5, dfs5, Options{K: 4, M: 3})
	lines = append(lines, certLine("strassen r=5 dfs K=4 M=3", cert, err))

	g4 := graph(bilinear.Strassen(), 4)
	dfs4 := schedule.RecursiveDFS(g4)
	for _, p := range []int{1, 3, 4} {
		owner := make([]int32, g4.NumVertices())
		for v := range owner {
			owner[v] = int32(v % p)
		}
		pc, err := CertifyParallel(g4, dfs4, owner, p, 2, 0, 8)
		id := fmt.Sprintf("strassen r=4 dfs parallel P=%d K=2 target=8", p)
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s err=%v", id, err))
			continue
		}
		lines = append(lines, fmt.Sprintf("%s busiest=%d counted=%d segments=%d minratio=%v words=%d",
			id, pc.BusiestProc, pc.BusiestCounted, pc.CompleteSegments, pc.MinDeltaRatio, pc.CertifiedWords))
	}
	for _, sc := range []struct {
		name  string
		sched []cdag.V
	}{{"dfs", dfs5}, {"rank", schedule.RankByRank(g5)}} {
		c5, err := CertifySection5(g5, sc.sched, 4, 1)
		id := fmt.Sprintf("strassen r=5 %s section5 K=4 M=1", sc.name)
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s err=%v", id, err))
			continue
		}
		lines = append(lines, fmt.Sprintf("%s segments=%d minratio=%v certified=%d",
			id, c5.CompleteSegments, c5.MinDeltaRatio, c5.CertifiedIO))
	}
	return lines
}

// TestCertifyGolden pins every certificate of the golden sweep to the
// values the map-based boundary evaluation produced before the
// certifiers moved onto the dense evaluator (testdata/certify.golden
// was recorded from that version).
func TestCertifyGolden(t *testing.T) {
	got := certifyGoldenLines(t)
	f, err := os.Open("testdata/certify.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d certificate lines, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
