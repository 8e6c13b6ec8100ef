package main

// Spans the benchmark records around its own calls into each layer.
// They stay in memory while the workload runs and are written once at
// exit, as runlog span records under one trace ID, so cmd/routelog
// renders the traced run as a waterfall. A nil *tracer (untraced runs)
// records nothing.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"pathrouting/internal/runlog"
)

// A span is one timed call into a layer.
type span struct {
	id, parent int // parent 0 = root of the trace
	name       string
	start, end time.Time
	attrs      map[string]string
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer collects spans; safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []*span
}

// begin opens a span under parent (nil = root). Nil-safe.
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	t.mu.Lock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// finish closes the span. Nil-safe.
func (s *span) finish() {
	if s != nil {
		s.end = time.Now()
	}
}

// set attaches a count or label. Only the goroutine that opened the
// span calls it. Nil-safe.
func (s *span) set(key string, v any) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = fmt.Sprint(v)
}

// traced runs fn inside a span named name under parent and returns
// fn's error. Nil-safe.
func (t *tracer) traced(parent *span, name string, fn func(sp *span) error) error {
	sp := t.begin(parent, name)
	err := fn(sp)
	sp.finish()
	return err
}

// selfTime is a span's duration minus the part of it its children
// cover; overlapping children (parallel calls) count once.
func selfTime(parent *span, children []*span) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.start, c.end
		if lo.Before(parent.start) {
			lo = parent.start
		}
		if hi.After(parent.end) {
			hi = parent.end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.lo.After(cur.hi):
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
		default:
			covered += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return parent.dur() - covered
}

// finished returns the closed spans and each one's self time.
func (t *tracer) finished() ([]*span, map[int]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]*span)
	var done []*span
	for _, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		done = append(done, s)
		kids[s.parent] = append(kids[s.parent], s)
	}
	self := make(map[int]time.Duration, len(done))
	for _, s := range done {
		self[s.id] = selfTime(s, kids[s.id])
	}
	return done, self
}

// write saves the spans to path as one runlog trace: a run_start at the
// first span, one span record per span (parent and self time in
// attrs), and a final record at the last span's end. Records carry the
// span's own end time, not the time of writing, so the trace's extent
// is the traced run's.
func (t *tracer) write(path, tool, traceID string, paths int64) error {
	spans, self := t.finished()
	if len(spans) == 0 {
		return fmt.Errorf("bench: no spans to write")
	}
	first, last := spans[0].start, spans[0].end
	for _, s := range spans {
		if s.start.Before(first) {
			first = s.start
		}
		if s.end.After(last) {
			last = s.end
		}
	}
	stamp := func(at time.Time) string { return at.UTC().Format(time.RFC3339Nano) }
	recs := []runlog.Record{{Event: runlog.EventRunStart, Time: stamp(first)}}
	for _, s := range spans {
		attrs := map[string]string{
			"id":       strconv.Itoa(s.id),
			"parent":   strconv.Itoa(s.parent),
			"self_sec": strconv.FormatFloat(self[s.id].Seconds(), 'f', 6, 64),
		}
		for k, v := range s.attrs {
			attrs[k] = v
		}
		recs = append(recs, runlog.Record{
			Event: runlog.EventSpan, Time: stamp(s.end), Span: s.name,
			SpanStart: stamp(s.start), DurSec: s.dur().Seconds(), Attrs: attrs,
		})
	}
	recs = append(recs, runlog.Record{Event: runlog.EventFinal, Time: stamp(last),
		Paths: paths, ElapsedSec: last.Sub(first).Seconds()})

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, rec := range recs {
		rec.Schema, rec.Tool, rec.Trace = runlog.SchemaVersion, tool, traceID
		line, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(append(line, '\n'))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
