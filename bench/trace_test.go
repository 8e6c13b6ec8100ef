package main

import (
	"path/filepath"
	"testing"
	"time"

	"pathrouting/internal/runlog"
)

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	mk := func(lo, hi float64) *span { return &span{start: at(lo), end: at(hi)} }
	parent := mk(0, 10)
	for _, c := range []struct {
		name     string
		children []*span
		want     float64
	}{
		{"no children", nil, 10},
		{"disjoint", []*span{mk(1, 2), mk(4, 6)}, 7},
		{"overlapping count once", []*span{mk(1, 3), mk(2, 5)}, 6},
		{"nested inside another child", []*span{mk(1, 8), mk(2, 3)}, 3},
		{"clipped to the parent", []*span{mk(-2, 1), mk(9, 12)}, 8},
		{"covering the parent", []*span{mk(0, 10)}, 0},
		{"outside the parent", []*span{mk(11, 12)}, 10},
	} {
		got := selfTime(parent, c.children).Seconds()
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: self time %gs, want %gs", c.name, got, c.want)
		}
	}
}

// The span file is a runlog journal: every record parses as a known
// event, and all of a run's spans share one trace.
func TestSpanFileReadable(t *testing.T) {
	tr := &tracer{}
	root := tr.begin(nil, "workload")
	for i := range 3 {
		rep := tr.begin(root, "rep")
		tr.traced(rep, "layer.a", func(sp *span) error { sp.set("paths", i); return nil })
		tr.traced(rep, "layer.b", func(*span) error { return nil })
		rep.finish()
	}
	root.finish()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path, "bench/test", "trace-1", 7); err != nil {
		t.Fatal(err)
	}
	sum, err := runlog.SummarizeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != 0 || sum.Unknown != 0 || sum.Spans != 10 || sum.Traces != 1 || sum.Runs != 1 || sum.Finals != 1 {
		t.Errorf("summary: %+v; want 0 skipped, 0 unknown, 10 spans, 1 trace, 1 run, 1 final", sum)
	}
	ts, err := runlog.CollectTracesFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Traces) != 1 {
		t.Fatalf("%d traces, want 1", len(ts.Traces))
	}
	tc := ts.Traces[0]
	if tc.ID != "trace-1" || len(tc.Spans) != 10 || tc.Final == nil || tc.Final.Paths != 7 {
		t.Errorf("trace %q: %d spans, final %+v", tc.ID, len(tc.Spans), tc.Final)
	}
	// The trace spans the root span, not the time the file was written.
	if got, want := tc.End.Sub(tc.Start), root.dur(); got-want > time.Microsecond || want-got > time.Microsecond {
		t.Errorf("trace extent %v, want the root span's %v", got, want)
	}
	for _, sp := range tc.Spans {
		if sp.Attrs["id"] == "" || sp.Attrs["parent"] == "" || sp.Attrs["self_sec"] == "" {
			t.Errorf("span %s lacks id, parent or self_sec: %v", sp.Name, sp.Attrs)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin(nil, "x")
	sp.set("k", 1)
	sp.finish()
	called := false
	if err := tr.traced(sp, "y", func(s *span) error { called = s == nil; return nil }); err != nil || !called {
		t.Errorf("traced on a nil tracer: err %v, fn saw a nil span %t", err, called)
	}
}
