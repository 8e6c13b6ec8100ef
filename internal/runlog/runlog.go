// Package runlog is the structured run journal for long verification
// runs: an append-only JSONL file with one self-describing record per
// event (run start, shard completion, Routing Theorem violation, final
// stats). The format is crash-tolerant by construction — each record is
// a single line, written with a single Write call, so a torn final line
// from a killed process never corrupts the lines before it — and the
// reader (Summarize) skips unparsable lines instead of failing, so a
// journal that outlived several interrupted runs still summarizes.
package runlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// SchemaVersion is stamped into every record so future readers can
// evolve the format without guessing. Schema 2 adds the span and
// heartbeat event types (see internal/obs); schema 3 adds the
// trace/job identity fields, so every record of a service job links
// back to its end-to-end trace; schema 4 adds the compact Resources
// block (process self-telemetry on heartbeats, accumulated per-job
// cost on final records). Schema-1 through schema-3 records remain
// valid, and readers skip event types and fields they do not know, so
// journals mixing schemas — or containing events from a future
// schema — summarize without error.
const SchemaVersion = 4

// Event names. A journal may contain any mix, across multiple runs.
const (
	EventRunStart  = "run_start"
	EventShardDone = "shard_done"
	EventViolation = "violation"
	EventFinal     = "final"
	// EventSpan (schema 2) is one completed trace span: a named,
	// timed section of a run (shard enumeration, checkpoint persist)
	// with optional attributes.
	EventSpan = "span"
	// EventHeartbeat (schema 2) is a periodic liveness record carrying
	// a snapshot of the run's metrics registry, so a journal alone
	// reconstructs the progress timeline of a crashed run.
	EventHeartbeat = "heartbeat"
)

// Record is one journal line. Fields are a union across event types;
// encoding omits the ones an event doesn't use.
type Record struct {
	Schema  int    `json:"schema"`
	Event   string `json:"event"`
	Time    string `json:"time"` // RFC 3339, UTC
	Tool    string `json:"tool,omitempty"`
	Alg     string `json:"alg,omitempty"`
	K       int    `json:"k,omitempty"`
	Workers int    `json:"workers,omitempty"`

	// trace propagation (schema 3): the end-to-end trace ID minted (or
	// accepted) at submission, and the executing service's job ID.
	// Every record a traced run emits carries both, so one journal
	// reconstructs per-job waterfalls (see Traces / cmd/routelog).
	Trace string `json:"trace,omitempty"`
	Job   string `json:"job,omitempty"`

	// shard_done
	Shard       int64 `json:"shard,omitempty"`
	ShardsDone  int64 `json:"shards_done,omitempty"`
	ShardsTotal int64 `json:"shards_total,omitempty"`
	ShardPaths  int64 `json:"shard_paths,omitempty"`

	// violation
	Error string `json:"error,omitempty"`

	// span (schema 2)
	Span      string            `json:"span,omitempty"`
	SpanStart string            `json:"span_start,omitempty"` // RFC 3339, UTC
	DurSec    float64           `json:"dur_sec,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`

	// heartbeat (schema 2)
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// Resources (schema 4) is the compact resource block: on heartbeat
	// records a process self-telemetry snapshot, on final records the
	// job's accumulated cost across every crash/resume leg.
	Resources *Resources `json:"res,omitempty"`

	// final
	Paths         int64   `json:"paths,omitempty"`
	TotalHits     int64   `json:"total_hits,omitempty"`
	MaxVertexHits int64   `json:"max_vertex_hits,omitempty"`
	MaxMetaHits   int64   `json:"max_meta_hits,omitempty"`
	Bound         int64   `json:"bound,omitempty"`
	AdjChecked    int64   `json:"adj_checked,omitempty"`
	ElapsedSec    float64 `json:"elapsed_sec,omitempty"`
	PathsPerSec   float64 `json:"paths_per_sec,omitempty"`
	Resumed       bool    `json:"resumed,omitempty"`
	Paused        bool    `json:"paused,omitempty"`
}

// Resources is the schema-4 compact resource block. It is a union of
// two uses, with omitempty keeping each record small: heartbeat
// records carry the process fields (heap, goroutines, GC, cumulative
// CPU and allocation), final records carry the per-job accounting
// fields (wall, queue wait, CPU seconds, allocated bytes, paths/s,
// legs) accumulated across every crash/resume leg of the job.
type Resources struct {
	// process self-telemetry (heartbeats)
	HeapBytes  int64   `json:"heap_bytes,omitempty"`
	Goroutines int64   `json:"goroutines,omitempty"`
	GCCycles   int64   `json:"gc_cycles,omitempty"`
	GCPauseP99 float64 `json:"gc_pause_p99,omitempty"` // seconds
	Uptime     float64 `json:"uptime_sec,omitempty"`

	// per-job accounting (final records); CPUSeconds and AllocBytes
	// double as the process-cumulative values on heartbeats.
	WallSeconds      float64 `json:"wall_sec,omitempty"`
	QueueWaitSeconds float64 `json:"queue_wait_sec,omitempty"`
	CPUSeconds       float64 `json:"cpu_sec,omitempty"`
	AllocBytes       int64   `json:"alloc_bytes,omitempty"`
	PathsPerSec      float64 `json:"paths_per_sec,omitempty"`
	Legs             int     `json:"legs,omitempty"` // daemon generations that ran the job
}

// Writer appends records to a journal file. A nil *Writer is a valid
// no-op sink, so callers can thread an optional journal without
// branching at every emit site.
type Writer struct {
	f   *os.File
	now func() time.Time
}

// Open opens (creating if needed) a journal for appending.
func Open(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	return &Writer{f: f, now: time.Now}, nil
}

// Close closes the underlying file. Safe on nil.
func (w *Writer) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}

// Emit stamps the schema version and timestamp onto rec and appends it
// as one JSON line. Safe on nil (drops the record). Each record is a
// single Write call, so concurrent emitters from one process interleave
// at line granularity and a crash tears at most the final line.
func (w *Writer) Emit(rec Record) error {
	if w == nil || w.f == nil {
		return nil
	}
	rec.Schema = SchemaVersion
	rec.Time = w.now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	_, err = w.f.Write(append(line, '\n'))
	return err
}

// Summary aggregates a journal across every run it records.
type Summary struct {
	Records    int // parsable lines
	Skipped    int // torn or foreign lines
	Runs       int // run_start events
	Finals     int
	Violations []string
	ShardsDone int64 // shard_done events (re-runs of a shard count once each)
	Spans      int   // span events (schema 2)
	Heartbeats int   // heartbeat events (schema 2)
	Traces     int   // distinct trace IDs (schema 3)
	Unknown    int   // parsable records of event types this reader does not know
	// OrbitGroups is the high-water mark of the orbit-group counter
	// across heartbeat metric snapshots (the counter is monotone within
	// a process, so the maximum is the last complete snapshot even when
	// heartbeats interleave).
	OrbitGroups float64
	// ByRun holds one entry per (tool, alg, k) configuration seen, in
	// first-appearance order.
	ByRun []RunSummary
}

// RunSummary is the per-configuration roll-up.
type RunSummary struct {
	Tool, Alg   string
	K           int
	Starts      int
	Paused      int
	Finals      int
	LastPaths   int64
	LastElapsed float64
	LastPPS     float64
	BestPPS     float64
}

func (s *Summary) runFor(rec Record) *RunSummary {
	for i := range s.ByRun {
		r := &s.ByRun[i]
		if r.Tool == rec.Tool && r.Alg == rec.Alg && r.K == rec.K {
			return r
		}
	}
	s.ByRun = append(s.ByRun, RunSummary{Tool: rec.Tool, Alg: rec.Alg, K: rec.K})
	return &s.ByRun[len(s.ByRun)-1]
}

// Summarize reads a journal stream. Unparsable lines (torn tails from
// killed runs, other formats) are counted in Skipped, never fatal.
func Summarize(r io.Reader) (*Summary, error) {
	s := &Summary{}
	traces := make(map[string]struct{})
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Event == "" {
			s.Skipped++
			continue
		}
		s.Records++
		if rec.Trace != "" {
			traces[rec.Trace] = struct{}{}
		}
		switch rec.Event {
		case EventRunStart:
			s.Runs++
			s.runFor(rec).Starts++
		case EventShardDone:
			s.ShardsDone++
		case EventViolation:
			s.Violations = append(s.Violations, rec.Error)
		case EventFinal:
			run := s.runFor(rec)
			s.Finals++
			if rec.Paused {
				run.Paused++
			} else {
				run.Finals++
			}
			run.LastPaths = rec.Paths
			run.LastElapsed = rec.ElapsedSec
			run.LastPPS = rec.PathsPerSec
			run.BestPPS = max(run.BestPPS, rec.PathsPerSec)
		case EventSpan:
			s.Spans++
		case EventHeartbeat:
			s.Heartbeats++
			s.OrbitGroups = max(s.OrbitGroups, rec.Metrics["routing_orbit_groups_total"])
		default:
			// Event types from a future schema: counted, never fatal,
			// and kept out of the per-run roll-ups they might not
			// belong to.
			s.Unknown++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	s.Traces = len(traces)
	return s, nil
}

// SummarizeFile is Summarize over a journal path.
func SummarizeFile(path string) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	defer f.Close()
	return Summarize(f)
}

// Format renders a Summary for terminal output.
func (s *Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "journal: %d records (%d skipped), %d run starts, %d finals, %d shard completions\n",
		s.Records, s.Skipped, s.Runs, s.Finals, s.ShardsDone)
	if s.Spans > 0 || s.Heartbeats > 0 || s.Unknown > 0 {
		fmt.Fprintf(&b, "  observability: %d spans, %d heartbeats, %d unknown-event records\n",
			s.Spans, s.Heartbeats, s.Unknown)
	}
	if s.Traces > 0 {
		fmt.Fprintf(&b, "  traces: %d distinct trace IDs (inspect with routelog)\n", s.Traces)
	}
	if s.OrbitGroups > 0 {
		fmt.Fprintf(&b, "  orbit reduction: %.0f orbits collapsed\n", s.OrbitGroups)
	}
	runs := append([]RunSummary(nil), s.ByRun...)
	sort.SliceStable(runs, func(i, j int) bool {
		if runs[i].Alg != runs[j].Alg {
			return runs[i].Alg < runs[j].Alg
		}
		return runs[i].K < runs[j].K
	})
	for _, r := range runs {
		fmt.Fprintf(&b, "  %s %s k=%d: %d starts, %d paused, %d completed",
			r.Tool, r.Alg, r.K, r.Starts, r.Paused, r.Finals)
		if r.LastPaths > 0 {
			fmt.Fprintf(&b, "; last %d paths in %.2fs (%.0f paths/s, best %.0f)",
				r.LastPaths, r.LastElapsed, r.LastPPS, r.BestPPS)
		}
		b.WriteString("\n")
	}
	for _, v := range s.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	return b.String()
}
