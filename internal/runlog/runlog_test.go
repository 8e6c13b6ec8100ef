package runlog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testWriter(t *testing.T) (*Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w.now = func() time.Time { return time.Unix(1700000000, 0) }
	return w, path
}

// TestEmitAppendRoundTrip writes a full run's worth of events across
// two Writer sessions (simulating a restart) and checks the summary
// sees everything.
func TestEmitAppendRoundTrip(t *testing.T) {
	w, path := testWriter(t)
	base := Record{Tool: "routecheck", Alg: "strassen", K: 4, Workers: 2}
	start := base
	start.Event = EventRunStart
	if err := w.Emit(start); err != nil {
		t.Fatal(err)
	}
	shard := base
	shard.Event, shard.Shard, shard.ShardsDone, shard.ShardsTotal, shard.ShardPaths = EventShardDone, 0, 1, 4, 32768
	if err := w.Emit(shard); err != nil {
		t.Fatal(err)
	}
	paused := base
	paused.Event, paused.Paused, paused.Paths = EventFinal, true, 32768
	if err := w.Emit(paused); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Second session appends, never truncates.
	w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	start.Resumed = true
	final := base
	final.Event, final.Paths, final.ElapsedSec, final.PathsPerSec = EventFinal, 131072, 2.0, 65536
	for _, rec := range []Record{start, final} {
		if err := w2.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := SummarizeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != 5 || s.Skipped != 0 || s.Runs != 2 || s.Finals != 2 || s.ShardsDone != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if len(s.ByRun) != 1 {
		t.Fatalf("expected one configuration, got %+v", s.ByRun)
	}
	r := s.ByRun[0]
	if r.Starts != 2 || r.Paused != 1 || r.Finals != 1 || r.LastPaths != 131072 || r.BestPPS != 65536 {
		t.Fatalf("run summary = %+v", r)
	}
	out := s.Format()
	if !strings.Contains(out, "strassen k=4") || !strings.Contains(out, "131072 paths") {
		t.Fatalf("format output:\n%s", out)
	}
}

// TestSchemaAndTimestampStamped checks Emit owns the envelope fields.
func TestSchemaAndTimestampStamped(t *testing.T) {
	w, path := testWriter(t)
	if err := w.Emit(Record{Event: EventRunStart, Schema: 99, Time: "bogus"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := string(data)
	if !strings.Contains(line, `"schema":4`) || strings.Contains(line, "bogus") {
		t.Fatalf("envelope not stamped: %s", line)
	}
	if !strings.Contains(line, "2023-11-14T22:13:20Z") {
		t.Fatalf("timestamp not UTC RFC3339: %s", line)
	}
}

// TestNilWriterIsSink: a nil journal must be transparently usable.
func TestNilWriterIsSink(t *testing.T) {
	var w *Writer
	if err := w.Emit(Record{Event: EventFinal}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeTornAndForeignLines: a journal whose last line was torn
// by a kill, plus junk lines, still summarizes the intact records.
func TestSummarizeTornAndForeignLines(t *testing.T) {
	journal := `{"schema":1,"event":"run_start","tool":"routecheck","alg":"strassen","k":3}
not json at all
{"schema":1,"event":"violation","error":"vertex hit 999 > bound"}
{"plausible":"json","but":"no event"}

{"schema":1,"event":"final","alg":"strassen","k":3,"paths":8192,"paths_per_sec":1000}
{"schema":1,"event":"shard_done","sh`
	s, err := Summarize(strings.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != 3 || s.Skipped != 3 {
		t.Fatalf("records=%d skipped=%d, want 3/3", s.Records, s.Skipped)
	}
	if len(s.Violations) != 1 || !strings.Contains(s.Violations[0], "999") {
		t.Fatalf("violations = %v", s.Violations)
	}
	if !strings.Contains(s.Format(), "VIOLATION") {
		t.Fatalf("format dropped the violation:\n%s", s.Format())
	}
}

// TestSummarizeMixedSchemas: a journal accumulated across binary
// versions — schema-1 records, schema-2 spans and heartbeats, a record
// from a hypothetical future schema, and a torn tail — must summarize
// the run records exactly as if the foreign ones were absent.
func TestSummarizeMixedSchemas(t *testing.T) {
	journal := `{"schema":1,"event":"run_start","tool":"routecheck","alg":"strassen","k":4,"workers":2}
{"schema":1,"event":"shard_done","tool":"routecheck","alg":"strassen","k":4,"shard":0,"shards_done":1,"shards_total":8}
{"schema":2,"event":"span","tool":"routecheck","alg":"strassen","k":4,"span":"shard_enumerate","dur_sec":0.5,"attrs":{"shard":"1"}}
{"schema":2,"event":"heartbeat","tool":"routecheck","alg":"strassen","k":4,"metrics":{"routing_paths_verified_total":4096}}
{"schema":3,"event":"quantum_flux","tool":"routecheck","alg":"strassen","k":4}
{"schema":2,"event":"final","tool":"routecheck","alg":"strassen","k":4,"paths":9834496,"paths_per_sec":250000}
{"schema":2,"event":"span","tool":"routecheck","alg":"str`
	s, err := Summarize(strings.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != 6 || s.Skipped != 1 {
		t.Fatalf("records=%d skipped=%d, want 6/1", s.Records, s.Skipped)
	}
	if s.Spans != 1 || s.Heartbeats != 1 || s.Unknown != 1 {
		t.Fatalf("spans=%d heartbeats=%d unknown=%d, want 1/1/1", s.Spans, s.Heartbeats, s.Unknown)
	}
	if s.Runs != 1 || s.Finals != 1 || s.ShardsDone != 1 {
		t.Fatalf("run roll-up = %+v", s)
	}
	// Exactly one configuration: spans/heartbeats/unknown events must
	// not fabricate per-run entries.
	if len(s.ByRun) != 1 {
		t.Fatalf("ByRun = %+v", s.ByRun)
	}
	if r := s.ByRun[0]; r.Starts != 1 || r.Finals != 1 || r.LastPaths != 9834496 {
		t.Fatalf("run summary = %+v", r)
	}
	out := s.Format()
	if !strings.Contains(out, "1 spans, 1 heartbeats, 1 unknown-event records") {
		t.Fatalf("format missing observability line:\n%s", out)
	}
}

// TestSummarizeOrbitCounters: the summary lifts the orbit-group counter
// from heartbeat snapshots (high-water mark across them) and Format
// prints it. Older journals also carry routing_orbit_families_total,
// which the reader ignores.
func TestSummarizeOrbitCounters(t *testing.T) {
	journal := `{"schema":4,"event":"heartbeat","metrics":{"routing_orbit_groups_total":1024,"routing_orbit_families_total":16}}
{"schema":4,"event":"heartbeat","metrics":{"routing_orbit_groups_total":6272,"routing_orbit_families_total":98}}
{"schema":4,"event":"heartbeat","metrics":{"routing_paths_verified_total":100}}`
	s, err := Summarize(strings.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if s.OrbitGroups != 6272 {
		t.Fatalf("orbit groups = %v, want 6272", s.OrbitGroups)
	}
	out := s.Format()
	if !strings.Contains(out, "6272 orbits collapsed\n") || strings.Contains(out, "famil") {
		t.Fatalf("orbit line wrong:\n%s", out)
	}
}

// TestSpanHeartbeatRoundTrip: schema-2 fields survive Emit/Summarize.
func TestSpanHeartbeatRoundTrip(t *testing.T) {
	w, path := testWriter(t)
	if err := w.Emit(Record{Event: EventSpan, Span: "checkpoint_persist",
		SpanStart: "2023-11-14T22:13:19Z", DurSec: 0.25,
		Attrs: map[string]string{"shard": "3"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Emit(Record{Event: EventHeartbeat,
		Metrics: map[string]float64{"routing_paths_per_second": 12345.5}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"span":"checkpoint_persist"`, `"dur_sec":0.25`,
		`"attrs":{"shard":"3"}`, `"metrics":{"routing_paths_per_second":12345.5}`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("journal missing %q:\n%s", want, data)
		}
	}
	s, err := SummarizeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spans != 1 || s.Heartbeats != 1 || s.Records != 2 {
		t.Fatalf("summary = %+v", s)
	}
}
