package main

// Goldens recorded at the commit that introduced the benchmark. Every
// value is exact: the verifier, the simulator and the certifier are
// deterministic, so any difference is a wrong answer.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/pebble"
	"pathrouting/internal/routing"
)

// goldenStats is Strassen's full routing of G_k (orbit-reduced or not,
// any worker count, default adjacency stride).
var goldenStats = map[int]routing.Stats{
	1: {NumPaths: 32, TotalHits: 320, MaxVertexHits: 18, MaxMetaHits: 12, Bound: 24, AdjacencyChecked: 1},
	3: {NumPaths: 8192, TotalHits: 180224, MaxVertexHits: 288, MaxMetaHits: 240, Bound: 384, AdjacencyChecked: 32},
	5: {NumPaths: 2097152, TotalHits: 71303168, MaxVertexHits: 4608, MaxMetaHits: 4032, Bound: 6144, AdjacencyChecked: 8161},
}

// statsLine renders st the way `routecheck` prints its stats: line.
func statsLine(st routing.Stats) string {
	return fmt.Sprintf("stats: paths=%d totalHits=%d maxVertexHits=%d maxMetaHits=%d bound=%d adjChecked=%d",
		st.NumPaths, st.TotalHits, st.MaxVertexHits, st.MaxMetaHits, st.Bound, st.AdjacencyChecked)
}

// checkStats compares the verified fields of st (everything but the
// wall time) with Strassen's golden at depth k.
func checkStats(st routing.Stats, k int) error {
	want, ok := goldenStats[k]
	if !ok {
		return fmt.Errorf("no golden stats for k=%d", k)
	}
	if got := statsLine(st); got != statsLine(want) {
		return fmt.Errorf("k=%d: got %q, want %q", k, got, statsLine(want))
	}
	return nil
}

// pebbleGolden is one Strassen G_r's pebbling results at M = 48 on the
// recursive DFS schedule: I/O per policy, the stack-distance pass, and
// the relaxed segment certificate (K = 2, target 8).
type pebbleGolden struct {
	io         map[pebble.Policy][2]int64 // reads, writes
	computed   int64
	accesses   int64
	missesAt48 int64
	segments   int
	minRatio   float64
	collection int
}

var goldenPebble = map[int]pebbleGolden{
	4: {
		io:       map[pebble.Policy][2]int64{pebble.MIN: {5983, 2991}, pebble.LRU: {11705, 5121}, pebble.FIFO: {11705, 5121}},
		computed: 15271, accesses: 45813, missesAt48: 26976, segments: 467, minRatio: 3, collection: 49,
	},
	5: {
		io:       map[pebble.Policy][2]int64{pebble.MIN: {50641, 25502}, pebble.LRU: {91151, 40455}, pebble.FIFO: {91151, 40455}},
		computed: 111505, accesses: 334515, missesAt48: 202656, segments: 3385, minRatio: 3, collection: 343,
	},
}

// paperrepro -quick: the E1 table's algorithm, r, M, IO(MIN) and
// IO(LRU) columns, and how many lines report a check as OK or
// verified.
var (
	goldenE1 = []string{
		"strassen 2 48 78 156",
		"strassen 3 48 852 1910",
		"strassen 4 48 8974 16826",
		"strassen 5 48 76143 131606",
		"winograd 2 48 58 170",
		"winograd 3 48 797 2137",
		"winograd 4 48 9063 18799",
		"disconnected56 2 200 3651 5680",
		"laderman 2 100 710 1528",
	}
	goldenOKLines       = 3
	goldenVerifiedLines = 2
	// goldenE9 is the SHA-256 of `paperrepro -quick -experiment E9`,
	// whose output holds no timings.
	goldenE9 = "a03ef9d5ea30ebe0922c272956f7d4753970965b336bdfac7ea4e0e33a2b8a88"
)

// e1Rows extracts the golden columns of the E1 table from paperrepro
// output.
func e1Rows(out string) []string {
	var rows []string
	in := false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "=== ") {
			in = strings.HasPrefix(line, "=== E1:")
			continue
		}
		f := strings.Fields(line)
		if !in || len(f) < 7 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err == nil {
			rows = append(rows, strings.Join(f[:5], " "))
		}
	}
	return rows
}

// countLines counts the lines of out containing sub.
func countLines(out, sub string) int {
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, sub) {
			n++
		}
	}
	return n
}

// checkE1 compares the E1 columns of out with the golden.
func checkE1(out string) error {
	got := e1Rows(out)
	if strings.Join(got, "\n") != strings.Join(goldenE1, "\n") {
		return fmt.Errorf("E1 table: got %q, want %q", got, goldenE1)
	}
	return nil
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// catalog returns the named algorithm of the bilinear catalog.
func catalog(name string) *bilinear.Algorithm {
	for _, a := range bilinear.All() {
		if a.Name == name {
			return a
		}
	}
	panic("bench: no catalog algorithm " + name)
}
