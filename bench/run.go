package main

import (
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// maxLogged caps the failure messages a run prints; the rest are only
// counted.
const maxLogged = 20

// run is the state of one workload run: its settings, the operation
// counts, and the samples the metrics are computed from.
type run struct {
	config
	ctx   context.Context
	tools map[string]string
	log   io.Writer

	tr   *tracer // nil in untraced runs
	root *span   // the traced run's root span

	mu                sync.Mutex
	attempted, failed int64

	// End-to-end samples (seconds unless noted).
	setup   []float64 // one per set-up repetition
	latency []float64 // one per primary operation
	cpuSec  float64   // CPU time of the system under test in the window
	ops     int64     // operations completed in the window
	window  float64   // wall time of the window
	rssMB   []float64 // peak resident set of each process that did the work

	// Traced runs: the untraced operation times the spans are compared
	// with, and the derived per-layer values a workload sets itself.
	untraced []float64
	derived  map[string]float64
	paths    int64 // routing pair paths verified by traced calls

	notes []string
}

func newRun(ctx context.Context, cfg config, tools map[string]string, log io.Writer) *run {
	return &run{
		config: cfg, ctx: ctx, tools: tools, log: log,
		derived: map[string]float64{},
	}
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *run) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if r.failed <= maxLogged {
		fmt.Fprintf(r.log, "bench: %s: failed: %v\n", r.workload, err)
	}
	return false
}

// budget is the time one measured phase gets: the whole run, or half
// of it in a traced run, which also measures untraced operations to
// compare the spans with.
func (r *run) budget() time.Duration {
	d := time.Duration(r.seconds * float64(time.Second))
	if r.trace {
		d /= 2
	}
	return d
}

// measure calls op(i) for i = 0, 1, ... until budget has passed (in
// smoke runs, until it has been called n times), and returns the wall
// time from the start to the end of the last call and the number of
// calls. It stops early when the run's context ends.
func (r *run) measure(budget time.Duration, smokeN int, op func(i int)) (time.Duration, int) {
	start := time.Now()
	n := 0
	for r.ctx.Err() == nil {
		if r.smoke && n >= smokeN || !r.smoke && n > 0 && time.Since(start) >= budget {
			break
		}
		op(n)
		n++
	}
	return time.Since(start), n
}

// addWindow folds a measured phase into the end-to-end samples.
func (r *run) addWindow(elapsed time.Duration, n int) {
	r.window += elapsed.Seconds()
	r.ops += int64(n)
}

// note appends a line to the run's printed detail.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timing notes a sample of durations (seconds) as name in unit (scale
// converts seconds to unit): its median and sample count, and the
// highest percentile with at least minBeyond samples beyond it.
func (r *run) timing(name, unit string, scale float64, xs []float64) {
	if len(xs) == 0 {
		r.note("%-22s %10s %-4s no samples", name, "-", unit)
		return
	}
	line := fmt.Sprintf("%-22s %10.4f %-4s median of %d", name, median(xs)*scale, unit, len(xs))
	if q, v, ok := tail(xs); ok {
		line += fmt.Sprintf(", p%g %.4f", q*100, v*scale)
	}
	r.note("%s", line)
}

func (r *run) endToEndMetrics() map[string]metric {
	perOp := func(x float64) float64 {
		if r.ops == 0 {
			return 0
		}
		return x / float64(r.ops)
	}
	rate := 0.0
	if r.window > 0 {
		rate = float64(r.ops) / r.window
	}
	vals := map[string]float64{
		"setup_s":     median(r.setup),
		"latency_ms":  median(r.latency) * 1e3,
		"ops_per_s":   rate,
		"cpu_ms":      perOp(r.cpuSec) * 1e3,
		"peak_rss_mb": median(r.rssMB),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// selfUsage is this process's CPU time (user+system, seconds) and peak
// resident set (MB).
func selfUsage() (cpu, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return cpuSeconds(&ru), maxrssMB(&ru)
}

// maxrssMB is the peak resident set in ru (which Linux reports in KiB).
func maxrssMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

func cpuSeconds(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapAllocs is the cumulative count of heap objects this process has
// allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
