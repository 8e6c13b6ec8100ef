// Package pathrouting is a full executable reproduction of
// Scott, Holtz, Schwartz — "Matrix Multiplication I/O-Complexity by
// Path Routing" (SPAA 2015).
//
// The paper proves optimal I/O-complexity lower bounds
// Ω((n/√M)^ω₀·M) for all Strassen-like fast matrix multiplication
// algorithms via a new path-routing technique. This library makes every
// object of that proof executable:
//
//   - a catalog of verified bilinear algorithms (Strassen, Winograd,
//     Laderman, classical, and tensor constructions with disconnected
//     decoding graphs and multiple copying) — Catalog, Strassen, …;
//   - explicit computation DAGs G_r with ranked tensor structure,
//     meta-vertices, and Fact 1 subcomputations — NewCDAG;
//   - the routings of Lemma 3, Lemma 4, Claim 1 and the Routing Theorem,
//     constructed and verified against their hit-count bounds —
//     NewRouter, VerifyRoutingTheorem;
//   - the red-blue pebble-game machine with MIN/LRU/FIFO replacement —
//     MeasureIO;
//   - the executable Theorem 1 argument certifying I/O lower bounds on
//     concrete schedules — CertifySchedule;
//   - closed-form bounds and parallel (Cannon / 2.5D / CAPS) bandwidth
//     simulations — SequentialLowerBound, RunCAPS, ….
//
// The subpackages under internal/ carry the implementation; this
// package re-exports the surface a downstream user needs.
package pathrouting

import (
	"fmt"
	"math/rand"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/bounds"
	"pathrouting/internal/cdag"
	"pathrouting/internal/core"
	"pathrouting/internal/expansion"
	"pathrouting/internal/matrix"
	"pathrouting/internal/parallel"
	"pathrouting/internal/pebble"
	"pathrouting/internal/routing"
	"pathrouting/internal/schedule"
)

// Core re-exported types. The aliases expose the internal
// implementations as public API.
type (
	// Algorithm is a base bilinear algorithm ⟨U,V,W⟩ for n₀×n₀
	// multiplication.
	Algorithm = bilinear.Algorithm
	// Side selects operand A or B.
	Side = bilinear.Side
	// Graph is the computation DAG G_r.
	Graph = cdag.Graph
	// V is a vertex of a Graph.
	V = cdag.V
	// Router constructs and verifies the paper's routings on a G_k.
	Router = routing.Router
	// RoutingStats reports verified hit counts of a routing.
	RoutingStats = routing.Stats
	// RoutingProgress is a periodic snapshot delivered to
	// Router.Progress by the full-routing verifiers.
	RoutingProgress = routing.Progress
	// Simulator is the red-blue pebble-game machine.
	Simulator = pebble.Simulator
	// IOResult reports measured reads/writes of a simulation.
	IOResult = pebble.Result
	// Policy is a cache replacement policy.
	Policy = pebble.Policy
	// Certificate is the outcome of the executable Theorem 1 argument.
	Certificate = core.Certificate
	// CertifyOptions configures CertifySchedule.
	CertifyOptions = core.Options
	// Dense is a dense float64 matrix.
	Dense = matrix.Dense
	// ExpansionReport describes whether the prior edge-expansion
	// technique applies to a base graph.
	ExpansionReport = expansion.Report
)

// Replacement policies for MeasureIO.
const (
	// MIN is Belady's offline-optimal policy.
	MIN = pebble.MIN
	// LRU evicts the least recently used value.
	LRU = pebble.LRU
	// FIFO is meant to evict the oldest cache resident; today it
	// evicts in LRU order and measures what LRU measures (see
	// pebble.FIFO).
	FIFO = pebble.FIFO
)

// Operand sides.
const (
	SideA = bilinear.SideA
	SideB = bilinear.SideB
)

// Catalog returns every verified algorithm in the catalog.
func Catalog() []*Algorithm { return bilinear.All() }

// Strassen returns Strassen's 7-multiplication algorithm.
func Strassen() *Algorithm { return bilinear.Strassen() }

// Winograd returns Winograd's variant of Strassen's algorithm.
func Winograd() *Algorithm { return bilinear.Winograd() }

// Classical returns the classical n₀³-multiplication algorithm.
func Classical(n0 int) *Algorithm { return bilinear.Classical(n0) }

// Laderman returns the 23-multiplication 3×3 algorithm.
func Laderman() (*Algorithm, error) { return bilinear.Laderman() }

// DisconnectedFast returns the fast 4×4 algorithm with a disconnected
// decoding base graph (Strassen⊗classical), the case motivating the
// paper.
func DisconnectedFast() *Algorithm { return bilinear.DisconnectedFast() }

// NewCDAG builds the computation DAG G_r of the algorithm.
func NewCDAG(alg *Algorithm, r int) (*Graph, error) { return cdag.New(alg, r) }

// NewRouter builds a router (base Hall matching included) for g.
func NewRouter(g *Graph) (*Router, error) { return routing.NewRouter(g) }

// ScheduleKind selects a schedule generator.
type ScheduleKind int

// Available schedule generators.
const (
	// ScheduleDFS is the I/O-optimal recursive depth-first order.
	ScheduleDFS ScheduleKind = iota
	// ScheduleRankByRank is the layer-major breadth-first order.
	ScheduleRankByRank
	// ScheduleRandom is a random topological order.
	ScheduleRandom
)

// BuildSchedule generates a schedule of the given kind for g. The rng
// is only used by ScheduleRandom (pass nil otherwise).
func BuildSchedule(g *Graph, kind ScheduleKind, rng *rand.Rand) ([]V, error) {
	switch kind {
	case ScheduleDFS:
		return schedule.RecursiveDFS(g), nil
	case ScheduleRankByRank:
		return schedule.RankByRank(g), nil
	case ScheduleRandom:
		if rng == nil {
			return nil, fmt.Errorf("pathrouting: ScheduleRandom needs a rand source")
		}
		return schedule.RandomTopological(g, rng)
	default:
		return nil, fmt.Errorf("pathrouting: unknown schedule kind %d", kind)
	}
}

// MeasureIO simulates the schedule kind on G_r(alg) with cache size M
// under the policy and returns the measured I/O.
func MeasureIO(alg *Algorithm, r int, m int, policy Policy, kind ScheduleKind) (IOResult, error) {
	g, err := cdag.New(alg, r)
	if err != nil {
		return IOResult{}, err
	}
	sched, err := BuildSchedule(g, kind, rand.New(rand.NewSource(1)))
	if err != nil {
		return IOResult{}, err
	}
	return (&pebble.Simulator{G: g, M: m, P: policy}).Run(sched)
}

// SequentialLowerBound returns the Θ-form Theorem 1 bound
// (n/√M)^ω₀·M for the algorithm.
func SequentialLowerBound(alg *Algorithm, n, m float64) float64 {
	return bounds.Theorem1Sequential(alg.Omega0(), n, m)
}

// ParallelLowerBound returns the Θ-form parallel bandwidth bound of
// Theorem 1.
func ParallelLowerBound(alg *Algorithm, n, m float64, p int) float64 {
	return bounds.Theorem1Parallel(alg.Omega0(), n, m, p)
}

// MemoryIndependentLowerBound returns the cache-independent bound
// n²/P^(2/ω₀).
func MemoryIndependentLowerBound(alg *Algorithm, n float64, p int) float64 {
	return bounds.MemoryIndependent(alg.Omega0(), n, p)
}

// ProofLowerBound returns the exact lower bound with the paper's
// Section 6 constants, or 0 out of regime.
func ProofLowerBound(alg *Algorithm, r int, m int64) int64 {
	return bounds.ProofSequential(alg, r, m)
}

// DFSUpperBound returns the I/O upper bound of the blocked recursive
// schedule, the matching upper bound from Ballard et al. [3].
func DFSUpperBound(alg *Algorithm, n, m float64) float64 {
	return bounds.DFSUpperBound(alg, n, m)
}

// ClassicalLowerBound returns the Hong–Kung classical bound for
// comparison.
func ClassicalLowerBound(n, m float64) float64 { return bounds.HongKungClassical(n, m) }

// CrossoverN returns the dimension above which the fast algorithm's
// bound beats the classical bound at cache size M.
func CrossoverN(alg *Algorithm, m float64) float64 {
	return bounds.CrossoverN(alg.Omega0(), m)
}

// VerifyRoutingTheorem constructs the Routing Theorem's 6aᵏ-routing on
// G_k(alg) and verifies its hit-count bounds exactly.
func VerifyRoutingTheorem(alg *Algorithm, k int) (RoutingStats, error) {
	g, err := cdag.New(alg, k)
	if err != nil {
		return RoutingStats{}, err
	}
	r, err := routing.NewRouter(g)
	if err != nil {
		return RoutingStats{}, err
	}
	return r.VerifyFullRouting()
}

// VerifyGuaranteedRouting verifies the Lemma 3 chain routing on G_k.
func VerifyGuaranteedRouting(alg *Algorithm, k int) (RoutingStats, error) {
	g, err := cdag.New(alg, k)
	if err != nil {
		return RoutingStats{}, err
	}
	r, err := routing.NewRouter(g)
	if err != nil {
		return RoutingStats{}, err
	}
	return r.VerifyGuaranteedRouting()
}

// VerifyDecodingRouting verifies the Section 5 (Claim 1) decoding-only
// routing on D_k; it fails for disconnected base decoding graphs.
func VerifyDecodingRouting(alg *Algorithm, k int) (RoutingStats, error) {
	g, err := cdag.New(alg, k)
	if err != nil {
		return RoutingStats{}, err
	}
	dr, err := routing.NewDecodingRouter(g)
	if err != nil {
		return RoutingStats{}, err
	}
	return dr.VerifyClaim1()
}

// CertifySchedule runs the executable Theorem 1 argument on a schedule.
func CertifySchedule(g *Graph, sched []V, opts CertifyOptions) (*Certificate, error) {
	return core.Certify(g, sched, opts)
}

// AnalyzeExpansion reports whether the prior edge-expansion technique
// applies to the algorithm's base graph.
func AnalyzeExpansion(alg *Algorithm) ExpansionReport { return expansion.Analyze(alg) }

// Parallel simulations.

// CannonResult reports a Cannon run.
type CannonResult = parallel.CannonResult

// CAPSResult reports a CAPS run.
type CAPSResult = parallel.CAPSResult

// TwoPointFiveDResult reports a 2.5D run.
type TwoPointFiveDResult = parallel.TwoPointFiveDResult

// RunCannon simulates Cannon's algorithm on a p×p grid.
func RunCannon(n, p int) (CannonResult, error) { return parallel.Cannon(n, p) }

// RunTwoPointFiveD simulates the 2.5D algorithm on a p×p×c grid.
func RunTwoPointFiveD(n, p, c int) (TwoPointFiveDResult, error) {
	return parallel.TwoPointFiveD(n, p, c)
}

// RunCAPS simulates the CAPS-style parallel Strassen-like algorithm.
func RunCAPS(alg *Algorithm, n, p int, m int64) (CAPSResult, error) {
	return parallel.CAPS(alg, n, p, m)
}

// Dense matrix helpers.

// NewDense returns a zero matrix.
func NewDense(rows, cols int) *Dense { return matrix.NewDense(rows, cols) }

// RandomDense returns a random matrix with entries in [-1, 1).
func RandomDense(rows, cols int, rng *rand.Rand) *Dense { return matrix.Random(rows, cols, rng) }

// Mul multiplies classically.
func Mul(a, b *Dense) *Dense { return matrix.Mul(a, b) }

// MulBlocked multiplies with square blocking (classical I/O-optimal
// layout for block size √(M/3)).
func MulBlocked(a, b *Dense, blockSize int) *Dense { return matrix.MulBlocked(a, b, blockSize) }

// MulFast multiplies with the recursive Strassen-like algorithm.
func MulFast(alg *Algorithm, a, b *Dense, cutoff int) *Dense {
	return matrix.Fast(alg, a, b, cutoff)
}

// Extensions beyond the paper's proven statements.

// MatchingComparison reports the greedy-vs-Hall matching ablation.
type MatchingComparison = routing.MatchingComparison

// CompareMatchings quantifies what the Theorem 3 Hall matching buys:
// it routes G_k once with the capacity-n₀ matching and once with a
// naive greedy assignment and reports both max hit counts against the
// 6aᵏ bound.
func CompareMatchings(alg *Algorithm, k int) (MatchingComparison, error) {
	return routing.CompareMatchings(alg, k)
}

// VerifySection8 runs the Routing Theorem verification with vertices
// identified by value class (the paper's one-vertex-per-value model) —
// an empirical test of the Section 8 conjecture that the standing
// assumption can be lifted. Stats.MaxMetaHits carries the per-class
// path count.
func VerifySection8(alg *Algorithm, k int) (RoutingStats, error) {
	g, err := cdag.New(alg, k)
	if err != nil {
		return RoutingStats{}, err
	}
	r, err := routing.NewRouter(g)
	if err != nil {
		return RoutingStats{}, err
	}
	return r.VerifyValueClassRouting()
}

// PartitionResult reports a rank-balanced CDAG partition's
// communication.
type PartitionResult = parallel.PartitionResult

// PartitionStyle selects the per-rank assignment rule.
type PartitionStyle = parallel.PartitionStyle

// Partition assignment rules.
const (
	// PartitionContiguous assigns index-contiguous shares.
	PartitionContiguous = parallel.Contiguous
	// PartitionShuffled assigns random shares.
	PartitionShuffled = parallel.Shuffled
)

// RankBalancedPartition assigns G_r's vertices to P processors rank by
// rank and counts forced communication — the setting of Theorem 1's
// cache-independent bound.
func RankBalancedPartition(g *Graph, p int, style PartitionStyle, rng *rand.Rand) (PartitionResult, error) {
	return parallel.RankBalancedPartition(g, p, style, rng)
}

// VerifyLemma6 checks Winograd's multiplication bound (Lemma 6) on
// every product subset of the base graph (exhaustive for b ≤ 14, or
// nTrials random subsets otherwise).
func VerifyLemma6(alg *Algorithm, rng *rand.Rand, nTrials int) error {
	if alg.B() <= 14 {
		return bilinear.VerifyLemma6Exhaustive(alg)
	}
	return bilinear.VerifyLemma6Random(alg, rng, nTrials)
}

// Liveness reports the live-set profile of a schedule (pebble machine).
type Liveness = pebble.Liveness

// AnalyzeLiveness computes the live-set profile of a schedule: the peak
// is the smallest cache size at which the schedule runs with compulsory
// I/O only.
func AnalyzeLiveness(g *Graph, sched []V) (Liveness, error) {
	return pebble.AnalyzeLiveness(g, sched)
}

// ArithmeticOps returns the exact arithmetic operation count of the
// recursive algorithm on n₀^r × n₀^r matrices.
func ArithmeticOps(alg *Algorithm, r int) int64 { return bounds.ArithmeticOps(alg, r) }

// MinFeasibleM returns the smallest cache the pebble machine needs for
// the algorithm's CDAG (max fan-in + 1).
func MinFeasibleM(alg *Algorithm) int { return bounds.MinFeasibleM(alg) }

// MissCurve is the result of a Mattson stack-distance pass: the LRU
// miss count for every cache size at once.
type MissCurve = pebble.MissCurve

// AnalyzeStackDistances computes the full LRU miss curve of a schedule
// in one pass.
func AnalyzeStackDistances(g *Graph, sched []V) (*MissCurve, error) {
	return pebble.AnalyzeStackDistances(g, sched)
}

// Duals returns the verified symmetry family of the algorithm (the
// tensor's S₃-orbit members that pass exact verification).
func Duals(alg *Algorithm) []*Algorithm { return bilinear.Duals(alg) }

// MarshalAlgorithm serializes a verified algorithm to JSON with exact
// rational coefficients.
func MarshalAlgorithm(alg *Algorithm) ([]byte, error) { return bilinear.MarshalAlgorithm(alg) }

// UnmarshalAlgorithm parses and Brent-verifies an algorithm from JSON.
func UnmarshalAlgorithm(data []byte) (*Algorithm, error) { return bilinear.UnmarshalAlgorithm(data) }

// RandomOrbitAlgorithm draws a verified algorithm from the de Groote
// symmetry orbit of base (nil for Strassen's).
func RandomOrbitAlgorithm(rng *rand.Rand, base *Algorithm) (*Algorithm, error) {
	return bilinear.RandomAlgorithm(rng, base)
}

// Section5Certificate is the outcome of the paper's simpler Section 5
// argument (Equation (1), decoding-only counting).
type Section5Certificate = core.Section5Certificate

// CertifySection5 machine-checks the Section 5 argument (66M quota,
// |δ(S)| ≥ |S̄|/22) on a schedule; it refuses algorithms with
// disconnected base decoding graphs — exactly the gap Section 6 closes.
func CertifySection5(g *Graph, sched []V, k int, m int64) (*Section5Certificate, error) {
	return core.CertifySection5(g, sched, k, m)
}

// ParallelCertificate is the outcome of the executable parallel
// argument (busiest-processor segmenting).
type ParallelCertificate = core.ParallelCertificate

// CertifyParallel applies the paper's parallel step: segment the
// computation sequence of the processor owning the most counted
// vertices and certify the words it must move.
func CertifyParallel(g *Graph, sched []V, owner []int32, p, k int, m, relaxedTarget int64) (*ParallelCertificate, error) {
	return core.CertifyParallel(g, sched, owner, p, k, m, relaxedTarget)
}

// BuildHybridSchedule returns the depth-bounded blocked order: DFS to
// the given depth, rank-major below (the schedule-structure ablation
// between ScheduleRankByRank and ScheduleDFS).
func BuildHybridSchedule(g *Graph, depth int) []V { return schedule.HybridDFS(g, depth) }

// VerifyRoutingTheoremParallel is VerifyRoutingTheorem distributed over
// a worker pool (workers ≤ 0 uses GOMAXPROCS); results are identical.
func VerifyRoutingTheoremParallel(alg *Algorithm, k, workers int) (RoutingStats, error) {
	g, err := cdag.New(alg, k)
	if err != nil {
		return RoutingStats{}, err
	}
	r, err := routing.NewRouter(g)
	if err != nil {
		return RoutingStats{}, err
	}
	return r.VerifyFullRoutingParallel(workers)
}

// Checkpointed verification (crash-safe long runs).

// RoutingCheckpointConfig configures VerifyRoutingTheoremCheckpointed.
type RoutingCheckpointConfig = routing.CheckpointConfig

// RoutingShardDone is the per-shard completion notification delivered
// to RoutingCheckpointConfig.OnShard.
type RoutingShardDone = routing.ShardDone

// ErrRoutingPaused is wrapped by the error a checkpointed verification
// returns when MaxShards stops it before completion; test with
// errors.Is. The checkpoint file holds all completed work.
var ErrRoutingPaused = routing.ErrPaused

// VerifyRoutingTheoremCheckpointed is VerifyRoutingTheoremParallel with
// sharded crash-safe persistence: completed shards are merged into the
// checkpoint file as the run proceeds, and a run resumed from that file
// skips them, producing final stats bit-identical to an uninterrupted
// run at any worker count.
func VerifyRoutingTheoremCheckpointed(alg *Algorithm, k, workers int, cfg RoutingCheckpointConfig) (RoutingStats, error) {
	g, err := cdag.New(alg, k)
	if err != nil {
		return RoutingStats{}, err
	}
	r, err := routing.NewRouter(g)
	if err != nil {
		return RoutingStats{}, err
	}
	return r.VerifyFullRoutingCheckpointed(workers, cfg)
}

// MulFastParallel is MulFast with the top-level subproducts computed
// concurrently (workers ≤ 0 uses GOMAXPROCS).
func MulFastParallel(alg *Algorithm, a, b *Dense, cutoff, workers int) *Dense {
	return matrix.FastParallel(alg, a, b, cutoff, workers)
}

// SweepResult pairs a cache size with measured I/O in a sweep.
type SweepResult = pebble.SweepResult

// SweepIO simulates the schedule at every listed cache size
// concurrently under the policy.
func SweepIO(g *Graph, sched []V, policy Policy, ms []int, workers int) []SweepResult {
	return pebble.SweepM(g, sched, policy, ms, workers)
}
