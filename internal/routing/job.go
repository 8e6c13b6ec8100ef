package routing

// Job-shaped entry point and content-addressed cache keys for the
// verification service (internal/serve, cmd/routed). A job is the
// whole pipeline a service request needs — build G_k, compute the
// base matching, run the checkpointed Routing Theorem verifier — in
// one call, parameterized exactly by the fields a client can submit.
// CacheKey hashes those parameters (with the algorithm identified by
// the content of its bilinear specification, not its name) so two
// requests asking for the same certificate collide on the same key
// regardless of how their algorithm objects were constructed.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/obs"
	"pathrouting/internal/rat"
)

// KernelScratch is the only kernel a job spec may name (empty means
// the same), kept so that specs naming it still validate.
const KernelScratch = "scratch"

// JobConfig is one full-routing verification job: everything a
// service request specifies, plus the run-local plumbing (checkpoint
// path, callbacks, stop channel) its executor wires in.
type JobConfig struct {
	// Alg is the algorithm whose G_k is verified (required).
	Alg *bilinear.Algorithm
	// K is the recursion depth (required, ≥ 1).
	K int
	// Workers is the verifier goroutine count — the job's worker
	// budget (0 = GOMAXPROCS).
	Workers int
	// AdjStride samples every Nth path for edge-by-edge adjacency
	// verification (0 = the engine default, 1 = every path).
	AdjStride int64
	// Orbits enables the orbit-reduced scan (bit-identical Stats,
	// ~n₀ᵏ-fold less chain work).
	Orbits bool

	// CheckpointPath is the job's checkpoint file (required): jobs
	// always run checkpointed so a killed executor resumes them.
	CheckpointPath string
	// ShardRows, Resume, Stop, and OnShard pass through to
	// CheckpointConfig (see there). Executors should pass Resume
	// unconditionally: a missing checkpoint starts fresh.
	ShardRows int64
	Resume    bool
	Stop      <-chan struct{}
	OnShard   func(ShardDone)
	// Progress and Obs pass through to the Router (see there).
	Progress func(Progress)
	Obs      *Instruments
}

// RunJob executes one verification job end to end: it builds G_k,
// computes the base matching, and runs the checkpointed Routing
// Theorem verifier with cfg's options. The error surface is the union
// of construction errors, ErrPaused (stopped via cfg.Stop or an
// executor's shard budget), and the verifier's violation errors.
//
// ctx carries the job's trace identity (obs.WithTraceContext): when
// present, cfg.Obs is derived per job so every span, heartbeat, and
// metric flush the engine emits carries the trace and job IDs, and
// the whole run is wrapped in a `job_run` span. ctx is observability
// plumbing only — cancellation still flows through cfg.Stop, which
// drains to a durable checkpoint instead of aborting mid-shard.
func RunJob(ctx context.Context, cfg JobConfig) (Stats, error) {
	if cfg.Alg == nil {
		return Stats{}, fmt.Errorf("routing: job has no algorithm")
	}
	in := cfg.Obs
	if tc := obs.TraceContextFrom(ctx); !tc.IsZero() {
		in = in.WithJob(tc)
	}
	span := in.startSpan("job_run")
	span.SetAttr("alg", cfg.Alg.Name)
	span.SetAttr("k", strconv.Itoa(cfg.K))
	// Cost attribution: snapshot cumulative process CPU and allocation
	// before the run so the span (and the serving layer, via the same
	// deltas) can report what this leg of the job cost. Process-wide
	// deltas are exact when jobs run one at a time (the service's
	// Concurrency default) and an upper bound otherwise.
	before := obs.ReadResources()
	defer func() {
		after := obs.ReadResources()
		span.SetAttr("cpu_sec", strconv.FormatFloat(after.CPUSeconds-before.CPUSeconds, 'f', 3, 64))
		span.SetAttr("alloc_bytes", strconv.FormatInt(after.AllocBytes-before.AllocBytes, 10))
		span.End()
	}()

	g, err := cdag.New(cfg.Alg, cfg.K)
	if err != nil {
		return Stats{}, err
	}
	r, err := NewRouter(g)
	if err != nil {
		return Stats{}, err
	}
	r.AdjacencySampleStride = cfg.AdjStride
	r.OrbitReduction = cfg.Orbits
	r.Progress = cfg.Progress
	r.Obs = in
	stats, err := r.VerifyFullRoutingCheckpointed(cfg.Workers, CheckpointConfig{
		Path:      cfg.CheckpointPath,
		ShardRows: cfg.ShardRows,
		Resume:    cfg.Resume,
		Stop:      cfg.Stop,
		OnShard:   cfg.OnShard,
	})
	switch {
	case err == nil:
		span.SetAttr("paths", strconv.FormatInt(stats.NumPaths, 10))
	case errors.Is(err, ErrPaused):
		span.SetAttr("paused", "true")
	default:
		span.SetAttr("error", err.Error())
	}
	return stats, err
}

// AlgorithmHash returns a stable hex digest of alg's complete
// bilinear specification: n₀, b, and every U/V/W coefficient in
// lowest terms. The Name is deliberately excluded — the hash is
// content-addressed, so two differently-named but coefficient-equal
// algorithms produce (and may share) the same certificates.
func AlgorithmHash(alg *bilinear.Algorithm) string {
	sum := algorithmDigest(alg)
	return hex.EncodeToString(sum[:])
}

// algorithmDigest is AlgorithmHash as raw bytes, the form checkpoints
// store.
func algorithmDigest(alg *bilinear.Algorithm) (sum [sha256.Size]byte) {
	h := sha256.New()
	fmt.Fprintf(h, "bilinear n0=%d b=%d\n", alg.N0, alg.B())
	writeMat := func(name string, m [][]rat.Rat) {
		io.WriteString(h, name)
		for _, row := range m {
			for _, c := range row {
				io.WriteString(h, " ")
				io.WriteString(h, c.String())
			}
			io.WriteString(h, "\n")
		}
	}
	writeMat("U", alg.U)
	writeMat("V", alg.V)
	writeMat("W", alg.W)
	h.Sum(sum[:0])
	return sum
}

// CacheKey returns the content-addressed result-cache key of a job:
// equal keys guarantee bit-identical Stats certificates, because the
// key covers everything the deterministic verifier's output depends
// on — the algorithm's coefficients, k, the effective adjacency stride
// (0 normalizes to the engine default, so "default" and "explicit
// 257" collide as they should), and the orbit flag. Shard geometry,
// worker count, and resume history are excluded: they cannot change
// the certificate. The hashed string still names kernel=scratch, so
// cache spills and the keys persisted in job specs stay valid.
func CacheKey(alg *bilinear.Algorithm, k int, adjStride int64, orbits bool) string {
	if adjStride <= 0 {
		adjStride = defaultAdjacencyStride
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("job alg=%s k=%d kernel=scratch adjstride=%d orbits=%t",
		AlgorithmHash(alg), k, adjStride, orbits)))
	return hex.EncodeToString(sum[:])
}

// CacheKey returns cfg's content-addressed result-cache key.
func (cfg JobConfig) CacheKey() string {
	return CacheKey(cfg.Alg, cfg.K, cfg.AdjStride, cfg.Orbits)
}
