package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pathrouting/internal/runlog"
)

// TestSmokeWorkloads runs every workload at its smallest size (k = 3,
// r = 4, 40 loop submissions), untraced and traced, and checks that
// no operation fails, that every metric is reported with its unit, and
// that the span file is a journal runlog reads cleanly and routelog
// renders as one trace.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the commands and runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	tools, err := buildTools(context.Background(), root, bin, "routelog")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, traced), func(t *testing.T) {
				cfg := config{
					workload: w.name, seed: 3, seconds: 0.05, trace: traced, smoke: true,
					root: root, bin: bin, work: t.TempDir(),
				}
				if traced {
					cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				var log bytes.Buffer
				res, err := execute(context.Background(), cfg, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				out := res.out
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", out.Correct, out.Attempted, out.Failed, log.String())
				}
				want := endToEnd
				if traced {
					want = nil
					for _, d := range perLayer {
						want = append(want, metricDef{d.name, d.unit})
					}
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := out.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s in %s, want %s", d.name, m.Unit, d.unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
					}
				}
				if !traced {
					return
				}
				if out.Metrics["trace.coverage"].Value <= 0 {
					t.Errorf("trace.coverage = %g, want > 0", out.Metrics["trace.coverage"].Value)
				}
				sum, err := runlog.SummarizeFile(cfg.spans)
				if err != nil {
					t.Fatal(err)
				}
				if sum.Skipped != 0 || sum.Unknown != 0 || sum.Spans == 0 || sum.Traces != 1 {
					t.Errorf("span file: %d skipped, %d unknown, %d spans, %d traces; want 0, 0, >0, 1",
						sum.Skipped, sum.Unknown, sum.Spans, sum.Traces)
				}
				rendered, err := exec.Command(tools["routelog"], cfg.spans).CombinedOutput()
				if err != nil {
					t.Fatalf("routelog: %v\n%s", err, rendered)
				}
				traces := 0
				for _, line := range strings.Split(string(rendered), "\n") {
					if strings.HasPrefix(line, "trace ") {
						traces++
					}
				}
				if traces != 1 {
					t.Errorf("routelog printed %d traces, want 1:\n%s", traces, rendered)
				}
			})
		}
	}
}
