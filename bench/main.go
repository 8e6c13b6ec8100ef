// Command bench is the repository's benchmark: five workloads on the
// paths a user takes (the routecheck and paperrepro commands, the
// routing job entry point, the routed service, and the pebble
// simulator), each checked against goldens while it is timed.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics and writes the spans it
// recorded around each call into a layer as a runlog journal that
// `routelog FILE` renders. Human-readable detail goes first; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// A workload is one named set of inputs the benchmark runs.
type workload struct {
	name  string
	tools []string // commands under cmd/ the workload executes
	run   func(r *run) error
}

var workloads = []workload{
	{"routecheck-k5", []string{"routecheck"}, routecheckK5},
	{"paperrepro-quick", []string{"paperrepro"}, paperreproQuick},
	{"job-k5", nil, jobK5},
	{"routed-mix", []string{"routed"}, routedMix},
	{"pebble-r5", nil, pebbleR5},
}

// A metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// runDeadline bounds one run after its tools are built, so a hung
// operation ends the run with an error instead of outliving the
// harness's time limit.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of every random input")
	seconds := fs.Float64("seconds", 15, "measured time per run")
	traceOn := fs.Int("trace", 0, "1: traced run (per-layer metrics and a span file)")
	spans := fs.String("spans", "", "with --trace 1: span file (default .bench_build/spans/<workload>-seed<N>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	out := filepath.Join(root, ".bench_build")
	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		root: root, bin: filepath.Join(out, "bin"), spans: *spans,
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}
	runs := filepath.Join(out, "runs")
	if err = os.MkdirAll(runs, 0o755); err == nil {
		cfg.work, err = os.MkdirTemp(runs, cfg.workload+"-")
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	env := readEnv(root, cfg.work)
	fmt.Fprintf(stdout, "env: %s\n", env)
	if ref, err := loadRefEnv(root); err != nil {
		fmt.Fprintf(stderr, "bench: warning: no reference environment: %v\n", err)
	} else {
		for _, m := range env.mismatches(ref) {
			fmt.Fprintf(stderr, "bench: warning: %s; numbers do not compare with the reference machine\n", m)
		}
	}

	// An interrupted run still stops the daemons it launched.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := execute(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, line := range res.notes {
		fmt.Fprintf(stdout, "  %s\n", line)
	}
	if cfg.trace {
		fmt.Fprintf(stdout, "  spans written to %s (render with: go run ./cmd/routelog %s)\n", cfg.spans, cfg.spans)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // smallest sizes, a few operations (tests)
	root     string // repository root
	bin      string // where the workload's tools are built
	work     string // directory for the run's own files
	spans    string // traced runs: span file path
}

// A metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON object a run ends with.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is a finished run: its JSON line and the detail printed above it.
type result struct {
	out   output
	notes []string
}

// execute builds the workload's tools, runs it, and assembles the
// metrics. Errors are failures to run at all; failed operations are
// counted in the result instead.
func execute(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	tools, err := buildTools(ctx, cfg.root, cfg.bin, w.tools...)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	r := newRun(ctx, cfg, tools, log)
	if cfg.trace {
		r.tr = &tracer{}
		r.root = r.tr.begin(nil, cfg.workload)
	}
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: run deadline: %w", cfg.workload, err)
	}
	res := &result{notes: r.notes}
	res.out = output{
		Attempted: r.attempted, Failed: r.failed,
		Correct: r.failed == 0 && r.attempted > 0,
	}
	if r.attempted > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%-22s %10.4f     %d of %d operations failed",
			"error_rate", float64(r.failed)/float64(r.attempted), r.failed, r.attempted))
	}
	if cfg.trace {
		r.root.finish()
		if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
			return nil, err
		}
		id := fmt.Sprintf("bench-%s-%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano())
		if err := r.tr.write(cfg.spans, "bench/"+cfg.workload, id, r.paths); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.out.Metrics = r.layerMetrics()
		return res, nil
	}
	res.out.Metrics = r.endToEndMetrics()
	return res, nil
}

// findRoot walks up from the working directory to the repository root,
// the first directory holding cmd/routecheck.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "routecheck")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory holding cmd/routecheck) above the working directory")
		}
		dir = parent
	}
}
