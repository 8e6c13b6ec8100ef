// Command benchjson converts `go test -bench` text output (stdin) into
// a machine-readable JSON document, so `make bench` can emit
// BENCH_routing.json without depending on jq or benchstat being
// installed. Every value/unit pair on a benchmark line becomes a
// metric, so custom b.ReportMetric units (paths/s, io/bound, ...) come
// through next to ns/op — and with `go test -benchmem`, the B/op and
// allocs/op columns land as metrics of the same names (the allocation
// budget of the routing enumeration kernel is tracked this way; see
// `make bench`).
//
// The env block records the run header go test prints (goos, goarch,
// pkg, cpu), the GOMAXPROCS the benchmarks ran at and the machine's
// core count. go test appends "-P" to every benchmark name when it runs
// at GOMAXPROCS P ≠ 1, so gomaxprocs is that suffix, or 1 where a name
// has none (a list such as "1,2" when a run mixes them).
//
// With -baseline it additionally compares the fresh run against a
// previously written JSON document and prints a per-benchmark delta
// table for the regression-sensitive columns (ns/op, B/op, allocs/op).
// Benchmarks match by full name, so a run at another gomaxprocs than
// the baseline's cannot be compared and exits 1.
// A delta worse than -tolerance percent on any of them exits 3 — or 4
// when the regressed metric is named in -hard, a comma-separated list
// of metrics whose regressions are hard failures. `make bench-diff`
// runs with -hard allocs/op: allocation counts are deterministic, so
// they gate CI hard, while the noisy wall-clock columns stay soft.
//
// Usage:
//
//	go test -run xxx -bench . -benchtime 5x -benchmem . | benchjson -o BENCH.json
//	go test -run xxx -bench . -benchtime 5x -benchmem . | benchjson -baseline BENCH.json -tolerance 10 -hard allocs/op
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one `BenchmarkName-P  N  v1 unit1  v2 unit2 ...` line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the whole converted run.
type Doc struct {
	// Env holds the run header go test prints (goos, goarch, pkg, cpu).
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable body of main. Exit codes: 0 ok, 1 input/IO
// error, 2 usage, 3 soft regression past tolerance, 4 hard regression
// (a metric named in -hard).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default: stdout, suppressed in -baseline mode)")
	baseline := fs.String("baseline", "", "prior benchjson output to compare against")
	tolerance := fs.Float64("tolerance", 10, "regression threshold for -baseline, in percent")
	hard := fs.String("hard", "", "comma-separated metrics whose regressions exit 4 instead of 3 (e.g. allocs/op)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tolerance < 0 {
		fmt.Fprintln(stderr, "benchjson: -tolerance must be non-negative")
		return 2
	}
	hardSet := map[string]bool{}
	for _, m := range strings.Split(*hard, ",") {
		if m = strings.TrimSpace(m); m == "" {
			continue
		}
		known := false
		for _, rm := range regressionMetrics {
			known = known || m == rm
		}
		if !known {
			fmt.Fprintf(stderr, "benchjson: -hard metric %q is not gated (want one of %s)\n",
				m, strings.Join(regressionMetrics, ", "))
			return 2
		}
		hardSet[m] = true
	}

	doc, err := parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	doc.Env["cores"] = strconv.Itoa(runtime.NumCPU())

	if *out != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		fmt.Fprintf(stdout, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
	}

	if *baseline != "" {
		return compare(doc, *baseline, *tolerance, hardSet, stdout, stderr)
	}

	if *out == "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		stdout.Write(append(buf, '\n'))
	}
	return 0
}

// parse converts `go test -bench` text into a Doc.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Env: map[string]string{}}
	var procs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				doc.Env[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		if p := procsOf(f[0]); !slices.Contains(procs, p) {
			procs = append(procs, p)
		}
		bm := Benchmark{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			bm.Metrics[f[i+1]] = v
		}
		doc.Benchmarks = append(doc.Benchmarks, bm)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin — did the bench run fail?")
	}
	doc.Env["gomaxprocs"] = strings.Join(procs, ",")
	return doc, nil
}

// procsOf returns the GOMAXPROCS a benchmark ran at, from the "-P"
// suffix go test appends to its name when P ≠ 1. A sub-benchmark whose
// own name ends in "-N" reads as run at N; no benchmark here has one.
func procsOf(name string) string {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 1 {
			return name[i+1:]
		}
	}
	return "1"
}

// regressionMetrics are the columns a baseline compare gates on: for
// all three, bigger is worse. Throughput metrics (paths/s) are shown
// in the JSON but deliberately not gated — they invert the comparison
// and are far noisier than the allocation columns.
var regressionMetrics = []string{"ns/op", "B/op", "allocs/op"}

// compare diffs doc against the JSON document at path and prints one
// line per benchmark/metric pair. Returns 4 if a metric in hard got
// worse by more than tol percent, 3 if only soft metrics did, 0
// otherwise.
func compare(doc *Doc, path string, tol float64, hard map[string]bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	var base Doc
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "benchjson: parse baseline %s: %v\n", path, err)
		return 1
	}
	if want, got := base.Env["gomaxprocs"], doc.Env["gomaxprocs"]; want != "" && want != got {
		fmt.Fprintf(stderr, "benchjson: this run is at gomaxprocs %s but baseline %s was recorded at gomaxprocs %s; rerun with -cpu %s or re-record the baseline\n",
			got, path, want, want)
		return 1
	}
	old := make(map[string]Benchmark, len(base.Benchmarks))
	for _, bm := range base.Benchmarks {
		old[bm.Name] = bm
	}

	fmt.Fprintf(stdout, "benchjson: comparing against %s (tolerance %.1f%%)\n", path, tol)
	fmt.Fprintf(stdout, "%-44s %-10s %14s %14s %8s\n", "benchmark", "metric", "old", "new", "delta")
	softRegressed, hardRegressed := 0, 0
	matched := 0
	for _, bm := range doc.Benchmarks {
		prev, ok := old[bm.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-44s (not in baseline)\n", bm.Name)
			continue
		}
		matched++
		for _, metric := range regressionMetrics {
			nv, haveNew := bm.Metrics[metric]
			ov, haveOld := prev.Metrics[metric]
			if !haveNew || !haveOld {
				continue
			}
			var pct float64
			switch {
			case ov != 0:
				pct = (nv - ov) / ov * 100
			case nv != 0:
				pct = 100 // something from nothing: treat as full regression
			}
			mark := ""
			if pct > tol {
				if hard[metric] {
					mark = "  REGRESSED (hard)"
					hardRegressed++
				} else {
					mark = "  REGRESSED"
					softRegressed++
				}
			}
			fmt.Fprintf(stdout, "%-44s %-10s %14.1f %14.1f %+7.1f%%%s\n",
				bm.Name, metric, ov, nv, pct, mark)
		}
	}
	// Benchmarks that vanished from the run are worth a line: a renamed
	// benchmark silently drops out of the gate otherwise.
	var gone []string
	seen := make(map[string]bool, len(doc.Benchmarks))
	for _, bm := range doc.Benchmarks {
		seen[bm.Name] = true
	}
	for name := range old {
		if !seen[name] {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(stdout, "%-44s (missing from this run)\n", name)
	}
	if matched == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark overlaps the baseline — wrong file?")
		return 1
	}
	if hardRegressed > 0 {
		fmt.Fprintf(stdout, "benchjson: %d hard-gated metric(s) regressed past %.1f%% (plus %d soft)\n",
			hardRegressed, tol, softRegressed)
		return 4
	}
	if softRegressed > 0 {
		fmt.Fprintf(stdout, "benchjson: %d metric(s) regressed past %.1f%%\n", softRegressed, tol)
		return 3
	}
	fmt.Fprintf(stdout, "benchjson: %d benchmark(s) within tolerance\n", matched)
	return 0
}
