package pebble

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

// goldenGraphs lists every catalog algorithm at the depths the golden
// sweeps cover: as deep as a graph of a few tens of thousands of
// vertices, so the sweep stays a Tier-1 test.
func goldenGraphs(t testing.TB) []*cdag.Graph {
	maxR := map[string]int{
		"classical2": 4, "classical3": 2, "strassen": 4, "winograd": 4,
		"strassen2": 2, "disconnected56": 2, "laderman": 2,
	}
	var gs []*cdag.Graph
	for _, alg := range bilinear.All() {
		top, ok := maxR[alg.Name]
		if !ok {
			t.Fatalf("catalog algorithm %s has no golden depth", alg.Name)
		}
		for r := 1; r <= top; r++ {
			g, err := cdag.New(alg, r)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
	}
	return gs
}

// goldenSchedules returns the DFS, rank-by-rank and seeded random
// schedules of g, in that order.
func goldenSchedules(t testing.TB, g *cdag.Graph) ([]string, [][]cdag.V) {
	rnd, err := schedule.RandomTopological(g, rand.New(rand.NewSource(int64(g.R))))
	if err != nil {
		t.Fatal(err)
	}
	return []string{"dfs", "rank", "random"},
		[][]cdag.V{schedule.RecursiveDFS(g), schedule.RankByRank(g), rnd}
}

// simulatorGoldenLines renders, one line each, the simulator Result of
// every golden graph, schedule, cache size and policy (or the error
// the run returned), the schedule's stack-distance curve and its
// liveness profile.
func simulatorGoldenLines(t testing.TB) []string {
	var lines []string
	for _, g := range goldenGraphs(t) {
		names, scheds := goldenSchedules(t, g)
		for i, sched := range scheds {
			id := fmt.Sprintf("%s r=%d %s", g.Alg.Name, g.R, names[i])
			for _, m := range []int{3, 4, 8, 16, 48, 200} {
				for _, p := range []Policy{MIN, LRU, FIFO} {
					res, err := (&Simulator{G: g, M: m, P: p}).Run(sched)
					if err != nil {
						lines = append(lines, fmt.Sprintf("%s M=%d %v err=%v", id, m, p, err))
						continue
					}
					lines = append(lines, fmt.Sprintf("%s M=%d %v reads=%d writes=%d computed=%d evictions=%d",
						id, m, p, res.Reads, res.Writes, res.Computed, res.Evictions))
				}
			}
			mc, err := AnalyzeStackDistances(g, sched)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for d := 0; d <= mc.MaxDistance()+1; d++ {
				fmt.Fprintf(h, "%d:%d;", d, mc.MissesAt(d))
			}
			lines = append(lines, fmt.Sprintf("%s stackdist accesses=%d compulsory=%d maxdist=%d distances=%d curve=%016x",
				id, mc.Accesses, mc.Compulsory, mc.MaxDistance(), len(mc.Distances()), h.Sum64()))
			lv, err := AnalyzeLiveness(g, sched)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s liveness peak=%d at=%d average=%v", id, lv.Peak, lv.PeakPosition, lv.Average))
		}
	}
	return lines
}

// readGolden returns the lines of a testdata golden file.
func readGolden(t testing.TB, path string) []string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// diffGolden fails t with the first few lines where got and want part.
func diffGolden(t *testing.T, got, want []string) {
	t.Helper()
	bad := 0
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			if bad++; bad == 10 {
				t.Fatalf("stopping after %d differing lines (%d got, %d want)", bad, len(got), len(want))
			}
		}
	}
	if len(got) == 0 {
		t.Fatal("empty golden sweep")
	}
}

// TestSimulatorGolden pins every simulator result, stack-distance
// curve and liveness profile of the golden sweep to the values the
// container/heap simulator produced before the simulator was rebuilt
// on dense tables (testdata/simulator.golden was recorded from that
// version). Any change in a victim choice shows up here as a changed
// Reads or Writes count.
func TestSimulatorGolden(t *testing.T) {
	diffGolden(t, simulatorGoldenLines(t), readGolden(t, "testdata/simulator.golden"))
}
