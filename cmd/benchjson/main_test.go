package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: pathrouting
cpu: Fake CPU @ 3.00GHz
BenchmarkA9EnumerationKernel/scratch-8   	       5	  20000000 ns/op	   1048576 B/op	      12 allocs/op	  500000 paths/s
BenchmarkA7ParallelVerification-8        	       5	  40000000 ns/op	   2097152 B/op	      30 allocs/op
PASS
ok  	pathrouting	1.234s
`

// benchOutOneProc is benchOut as go test prints it at GOMAXPROCS 1:
// no -P suffix on any name.
var benchOutOneProc = strings.ReplaceAll(benchOut, "-8 ", "   ")

// TestParseBenchOutput: every value/unit pair becomes a metric, and
// the go test header lands in Env.
func TestParseBenchOutput(t *testing.T) {
	doc, err := parse(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %+v", doc.Benchmarks)
	}
	bm := doc.Benchmarks[0]
	if bm.Name != "BenchmarkA9EnumerationKernel/scratch-8" || bm.Iterations != 5 {
		t.Fatalf("first benchmark = %+v", bm)
	}
	for metric, want := range map[string]float64{
		"ns/op": 20000000, "B/op": 1048576, "allocs/op": 12, "paths/s": 500000,
	} {
		if bm.Metrics[metric] != want {
			t.Fatalf("%s = %v, want %v", metric, bm.Metrics[metric], want)
		}
	}
	if doc.Env["goarch"] != "amd64" || doc.Env["cpu"] != "Fake CPU @ 3.00GHz" {
		t.Fatalf("env = %+v", doc.Env)
	}
}

// TestWriteThenCompareClean: -o writes a JSON doc that a second run of
// identical output compares clean against (exit 0).
func TestWriteThenCompareClean(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	var out, errOut strings.Builder
	if code := run([]string{"-o", base}, strings.NewReader(benchOut), &out, &errOut); code != 0 {
		t.Fatalf("write run: exit %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("written file is not valid JSON: %v", err)
	}
	out.Reset()
	if code := run([]string{"-baseline", base}, strings.NewReader(benchOut), &out, &errOut); code != 0 {
		t.Fatalf("identical compare: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "within tolerance") {
		t.Fatalf("compare output:\n%s", out.String())
	}
}

// TestCompareRegression: ns/op 2x worse than baseline exits 3 past the
// tolerance, and the delta table names the offender.
func TestCompareRegression(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	var out, errOut strings.Builder
	if code := run([]string{"-o", base}, strings.NewReader(benchOut), &out, &errOut); code != 0 {
		t.Fatalf("write run: exit %d", code)
	}
	slower := strings.ReplaceAll(benchOut, "  40000000 ns/op", "  80000000 ns/op")
	out.Reset()
	code := run([]string{"-baseline", base, "-tolerance", "10"}, strings.NewReader(slower), &out, &errOut)
	if code != 3 {
		t.Fatalf("regressed compare: exit %d, want 3\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") ||
		!strings.Contains(out.String(), "BenchmarkA7ParallelVerification-8") {
		t.Fatalf("delta table:\n%s", out.String())
	}
	// Raising the tolerance above the 100% delta clears the gate.
	out.Reset()
	if code := run([]string{"-baseline", base, "-tolerance", "150"}, strings.NewReader(slower), &out, &errOut); code != 0 {
		t.Fatalf("tolerant compare: exit %d\n%s", code, out.String())
	}
}

// TestCompareHardGate: a regression on a metric named in -hard exits 4
// (the CI-fatal code) while the same regression on a soft metric stays
// at 3, and an unknown -hard metric is a usage error.
func TestCompareHardGate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	var out, errOut strings.Builder
	if code := run([]string{"-o", base}, strings.NewReader(benchOut), &out, &errOut); code != 0 {
		t.Fatalf("write run: exit %d", code)
	}

	// allocs/op doubles: hard-gated → 4, with the (hard) marker.
	leaky := strings.ReplaceAll(benchOut, "      30 allocs/op", "      60 allocs/op")
	out.Reset()
	code := run([]string{"-baseline", base, "-tolerance", "10", "-hard", "allocs/op"},
		strings.NewReader(leaky), &out, &errOut)
	if code != 4 {
		t.Fatalf("hard regression: exit %d, want 4\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED (hard)") {
		t.Fatalf("hard marker missing:\n%s", out.String())
	}

	// ns/op doubles: not in -hard → still the soft exit 3.
	slower := strings.ReplaceAll(benchOut, "  40000000 ns/op", "  80000000 ns/op")
	out.Reset()
	code = run([]string{"-baseline", base, "-tolerance", "10", "-hard", "allocs/op"},
		strings.NewReader(slower), &out, &errOut)
	if code != 3 {
		t.Fatalf("soft regression under -hard: exit %d, want 3\n%s", code, out.String())
	}

	// Typoed -hard metric: usage error, not a silently ungated run.
	errOut.Reset()
	if code := run([]string{"-baseline", base, "-hard", "alloc/op"},
		strings.NewReader(benchOut), &out, &errOut); code != 2 {
		t.Fatalf("unknown hard metric: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "not gated") {
		t.Fatalf("stderr: %s", errOut.String())
	}
}

// TestEnvRecordsParallelism: the env block records the GOMAXPROCS the
// benchmarks ran at, read from the -P name suffix (1 where names have
// none, a list where a run mixes them), and the machine core count, so
// baselines carry the parallelism they were measured at.
func TestEnvRecordsParallelism(t *testing.T) {
	mixed := benchOutOneProc + "BenchmarkA7ParallelVerification-2  5  40000000 ns/op\n"
	for _, c := range []struct{ name, input, want string }{
		{"suffixed", benchOut, "8"},
		{"unsuffixed", benchOutOneProc, "1"},
		{"mixed", mixed, "1,2"},
	} {
		base := filepath.Join(t.TempDir(), "base.json")
		var out, errOut strings.Builder
		if code := run([]string{"-o", base}, strings.NewReader(c.input), &out, &errOut); code != 0 {
			t.Fatalf("%s: write run: exit %d", c.name, code)
		}
		data, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		var doc Doc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Env["gomaxprocs"] != c.want {
			t.Fatalf("%s: env gomaxprocs = %q, want %q", c.name, doc.Env["gomaxprocs"], c.want)
		}
		if doc.Env["cores"] != strconv.Itoa(runtime.NumCPU()) {
			t.Fatalf("%s: env cores = %q", c.name, doc.Env["cores"])
		}
	}
}

// TestCompareRefusesOtherGomaxprocs: a run at another GOMAXPROCS than
// the baseline's exits 1 with a message naming both values, before any
// name is matched.
func TestCompareRefusesOtherGomaxprocs(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	var out, errOut strings.Builder
	if code := run([]string{"-o", base}, strings.NewReader(benchOutOneProc), &out, &errOut); code != 0 {
		t.Fatalf("write run: exit %d", code)
	}
	out.Reset()
	code := run([]string{"-baseline", base, "-hard", "allocs/op"}, strings.NewReader(benchOut), &out, &errOut)
	if code != 1 {
		t.Fatalf("gomaxprocs mismatch: exit %d, want 1\n%s", code, out.String())
	}
	if msg := errOut.String(); !strings.Contains(msg, "gomaxprocs 8") || !strings.Contains(msg, "gomaxprocs 1") {
		t.Fatalf("mismatch message does not name both values: %s", msg)
	}
}

// TestCompareReportsMissingAndNew: renamed benchmarks show up as
// missing-from-run and not-in-baseline rather than silently passing.
func TestCompareReportsMissingAndNew(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	var out, errOut strings.Builder
	if code := run([]string{"-o", base}, strings.NewReader(benchOut), &out, &errOut); code != 0 {
		t.Fatalf("write run: exit %d", code)
	}
	renamed := strings.ReplaceAll(benchOut,
		"BenchmarkA7ParallelVerification-8", "BenchmarkA7ParallelVerificationV2-8")
	out.Reset()
	if code := run([]string{"-baseline", base}, strings.NewReader(renamed), &out, &errOut); code != 0 {
		t.Fatalf("renamed compare: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkA7ParallelVerificationV2-8 (not in baseline)") &&
		!strings.Contains(out.String(), "(not in baseline)") {
		t.Fatalf("new benchmark not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "(missing from this run)") {
		t.Fatalf("vanished benchmark not flagged:\n%s", out.String())
	}
}

// TestErrors: empty stdin, bad baseline path, disjoint baseline, and
// negative tolerance all fail with distinct exits.
func TestErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, strings.NewReader("PASS\n"), &out, &errOut); code != 1 {
		t.Fatalf("empty input: exit %d", code)
	}
	if code := run([]string{"-baseline", filepath.Join(t.TempDir(), "nope.json")},
		strings.NewReader(benchOut), &out, &errOut); code != 1 {
		t.Fatalf("missing baseline: exit %d", code)
	}
	if code := run([]string{"-tolerance", "-5"}, strings.NewReader(benchOut), &out, &errOut); code != 2 {
		t.Fatalf("negative tolerance: exit %d", code)
	}
	// A baseline with no overlapping benchmarks is a wiring mistake,
	// not a clean pass.
	base := filepath.Join(t.TempDir(), "other.json")
	os.WriteFile(base, []byte(`{"benchmarks":[{"name":"BenchmarkElse-8","iterations":1,"metrics":{"ns/op":1}}]}`), 0o644)
	if code := run([]string{"-baseline", base}, strings.NewReader(benchOut), &out, &errOut); code != 1 {
		t.Fatalf("disjoint baseline: exit %d", code)
	}
}
