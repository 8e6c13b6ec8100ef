package routing

// Crash-safe checkpointing for the full-routing verifiers. The
// pair-path enumeration space is split into deterministic fixed-size
// shards of whole rows (row = one (side, input) pair, see parallel.go),
// by sequential enumeration order, so the shard boundaries — and hence
// every per-shard contribution — are independent of the worker count.
// Workers pull shards from a queue and scan them into int64 hit and
// meta-vertex vectors each keeps for the whole run; from time to time
// (see CheckpointConfig) a worker merges its vectors and its completed
// shards' path/adjacency tallies into a single accumulated Checkpoint,
// which is persisted with an atomic write-to-temp-then-rename so a
// crash can never leave a torn file. On resume, completed shards are
// skipped and their cached contributions reused; because every merged
// quantity is an exact int64 sum (or a max over exact sums), an
// interrupted-and-resumed run produces final Stats bit-identical to an
// uninterrupted one, at any worker count.
//
// The file (format version 2) is, in order:
//
//	magic "PRCKPT\r\n", version as a little-endian uint32
//	AlgorithmHash(alg) as 32 raw bytes
//	len(Alg) as a uvarint, then the name's bytes
//	K, NumVertices, ShardRows, NumShards, AdjStride, NumPaths,
//	    TotalHits, AdjChecked, each a little-endian int64
//	the done bitmap, ⌈NumShards/8⌉ bytes, shard s at bit s%8 of byte s/8
//	Hits, then MetaHits, NumVertices uvarints each
//	SHA-256 of every byte above
//
// The certificate is "no counter exceeds 6aᵏ", so a flipped bit that
// lowers one counter would certify a violated bound: LoadCheckpoint
// checks the checksum before it reads any field, and resume re-checks
// the tallies against each other before it trusts them.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// CheckpointVersion is the format version written into checkpoint
// files; LoadCheckpoint rejects every other version.
const CheckpointVersion = 2

// ckptMagic opens every checkpoint file. ckptMinLen is the size of a
// file with an empty name, no vertices and no shards: magic, version,
// algorithm hash, a one-byte name length, eight int64 fields, trailer.
const (
	ckptMagic  = "PRCKPT\r\n"
	ckptMinLen = len(ckptMagic) + 4 + sha256.Size + 1 + 8*8 + sha256.Size
)

// ErrCheckpointInvalid is wrapped by every LoadCheckpoint error except
// a missing file, and by resume's tally checks: the file is not a
// checkpoint this build can trust — bad magic, a version-1 (gob) file,
// truncation, a checksum mismatch, impossible sizes, or tallies that
// contradict each other. Such a file never resumes; a caller that can
// afford to start over (the verification service does) moves it aside
// and reruns.
var ErrCheckpointInvalid = errors.New("routing: checkpoint invalid")

// defaultShardPaths sizes shards when CheckpointConfig.ShardRows is 0:
// roughly this many pair paths per shard, so checkpoint granularity
// stays useful as k grows (a shard is always a whole number of rows).
const defaultShardPaths = 1 << 20

// ErrPaused is wrapped by the error VerifyFullRoutingCheckpointed
// returns when it stops before completing every shard (MaxShards
// reached). The checkpoint file holds all completed work; rerun with
// Resume to continue.
var ErrPaused = errors.New("routing: checkpointed verification paused before completion")

// CheckpointConfig configures VerifyFullRoutingCheckpointed.
//
// Durability. Each worker scans its shards into accumulators it keeps
// for the whole run, and merges them into the checkpoint after its
// first shard, then at most once per save interval, and when it stops.
// The checkpoint is saved after the run's first merge, then after a
// merge at most once per interval, and once more at the end if
// anything merged since. The interval is ten times the last save's
// duration, and at least a second, so saves stay near a tenth of the
// wall time even where the vectors are tens of millions of entries
// long. Pause (MaxShards), drain (Stop) and completion persist every
// completed shard. A hard kill loses the work not yet saved: at most
// about two intervals, plus one shard per worker. Every saved file is
// the exact sum of its done shards, so it resumes under any kernel.
type CheckpointConfig struct {
	// Path is the checkpoint file (required). Saves write Path+".tmp"
	// and rename it over Path, so a crash mid-save is harmless.
	Path string
	// ShardRows is the number of enumeration rows per shard; 0 sizes
	// shards to ~defaultShardPaths pair paths, or — when resuming —
	// adopts the checkpoint's shard size. An explicit value must match
	// the checkpoint it resumes.
	ShardRows int64
	// MaxShards, when positive, stops the run after completing this
	// many new shards and returns an ErrPaused-wrapped error — a
	// time-boxing knob (and the seam the interrupt/resume tests and
	// `make verify-resume` use to simulate a kill).
	MaxShards int64
	// Stop, when non-nil, makes workers stop claiming new shards once
	// it is closed: in-flight shards finish, and every completed shard
	// is merged and persisted, then the run returns an ErrPaused-wrapped
	// error exactly as MaxShards would. This is the graceful-drain seam
	// a daemon's SIGTERM handler uses — a drained job's checkpoint
	// resumes on restart.
	Stop <-chan struct{}
	// Resume loads an existing checkpoint at Path and skips its
	// completed shards. A missing file starts a fresh run, so retry
	// loops can pass Resume unconditionally; an incompatible file
	// (different algorithm, k, shard size, or adjacency stride) is an
	// error, and so is one that is corrupt (ErrCheckpointInvalid).
	Resume bool
	// OnShard, when non-nil, is called once per completed shard,
	// serialized by the engine's lock (keep it fast). It reports
	// completion, not persistence: the shard's hits may still be in its
	// worker's accumulator, to be merged and saved later.
	OnShard func(ShardDone)
}

// ShardDone is the per-shard completion notification delivered to
// CheckpointConfig.OnShard.
type ShardDone struct {
	// Shard is the completed shard's index in [0, Total), or -1 for the
	// synthetic restore notification (Restored below).
	Shard int64
	// Rows and Paths are the shard's size.
	Rows, Paths int64
	// Done is the cumulative number of completed shards (including
	// those restored from the checkpoint); Total the overall count.
	Done, Total int64
	// Restored marks the one synthetic notification a resumed run
	// delivers before re-running anything: it aggregates every shard
	// restored from the checkpoint (Shard is -1; Rows/Paths/Done cover
	// all of them), so coverage displays start from the restored state
	// instead of discovering it shard by shard — or never, when the
	// checkpoint was already complete.
	Restored bool
}

// Checkpoint is the persisted accumulated state of a checkpointed
// verification run: which shards are complete and the exact merged
// contribution of every completed shard.
type Checkpoint struct {
	Alg         string
	K           int
	NumVertices int
	ShardRows   int64
	NumShards   int64
	AdjStride   int64

	Done      []bool
	DoneCount int64 // number of true entries in Done

	NumPaths   int64
	TotalHits  int64
	AdjChecked int64
	// Hits and MetaHits are dense per-vertex counters indexed by vertex
	// ID; MetaHits is nonzero only at meta-vertex roots.
	Hits     []int64
	MetaHits []int64

	algHash [sha256.Size]byte // algorithmDigest of the verified algorithm
	buf     []byte            // file image, reused across saves
}

// shardPlan is the deterministic shard geometry for one router.
type shardPlan struct {
	rows, shardRows, numShards int64
}

func (r *Router) shardPlan(shardRows int64) shardPlan {
	rows := r.numRows()
	aK := r.powA[r.k]
	if shardRows <= 0 {
		shardRows = defaultShardPaths / aK
		if shardRows < 1 {
			shardRows = 1
		}
	}
	if shardRows > rows {
		shardRows = rows
	}
	return shardPlan{rows: rows, shardRows: shardRows, numShards: (rows + shardRows - 1) / shardRows}
}

// newCheckpoint returns the empty accumulated state for a plan.
func (r *Router) newCheckpoint(plan shardPlan) *Checkpoint {
	return &Checkpoint{
		Alg:         r.G.Alg.Name,
		K:           r.k,
		NumVertices: r.G.NumVertices(),
		ShardRows:   plan.shardRows,
		NumShards:   plan.numShards,
		AdjStride:   r.adjStride(),
		Done:        make([]bool, plan.numShards),
		Hits:        make([]int64, r.G.NumVertices()),
		MetaHits:    make([]int64, r.G.NumVertices()),
		algHash:     algorithmDigest(r.G.Alg),
	}
}

// checkpointCompat rejects resuming a checkpoint whose run parameters
// differ from this router's — merged contributions would be silently
// wrong rather than loudly incompatible — or whose tallies contradict
// each other. The checkpoint's shape (vector lengths) was checked when
// it was decoded.
func (r *Router) checkpointCompat(c *Checkpoint, plan shardPlan) error {
	switch {
	case c.Alg != r.G.Alg.Name || c.K != r.k:
		return fmt.Errorf("routing: checkpoint is for %s G_%d, router verifies %s G_%d",
			c.Alg, c.K, r.G.Alg.Name, r.k)
	case c.algHash != algorithmDigest(r.G.Alg):
		return fmt.Errorf("routing: checkpoint is for %s with other coefficients (algorithm hash %x, router's %s)",
			c.Alg, c.algHash, AlgorithmHash(r.G.Alg))
	case c.NumVertices != r.G.NumVertices():
		return fmt.Errorf("routing: checkpoint has %d vertices, graph has %d", c.NumVertices, r.G.NumVertices())
	case c.ShardRows != plan.shardRows || c.NumShards != plan.numShards:
		return fmt.Errorf("routing: checkpoint shards %d×%d rows, run wants %d×%d — resume with the original shard size",
			c.NumShards, c.ShardRows, plan.numShards, plan.shardRows)
	case c.AdjStride != r.adjStride():
		return fmt.Errorf("routing: checkpoint adjacency stride %d, router uses %d", c.AdjStride, r.adjStride())
	}
	return c.checkTallies(r, plan)
}

// checkTallies catches what a checksum cannot: a writer that merged
// wrongly, or a file rewritten with a fresh checksum. Every pair path
// of G_k has 6k+4 vertices, so the done rows fix NumPaths, NumPaths
// fixes TotalHits, and the per-vertex Hits must add up to TotalHits.
// The done rows also fix AdjChecked: every kernel checks path
// idx = row·aᵏ + out edge by edge exactly when idx is a multiple of the
// adjacency stride.
func (c *Checkpoint) checkTallies(r *Router, plan shardPlan) error {
	rows := c.doneRows(plan)
	pathLen := int64(6*r.k + 4)
	switch {
	case c.NumPaths != rows*r.powA[r.k]:
		return fmt.Errorf("%w: %d paths recorded, but %d done rows hold %d",
			ErrCheckpointInvalid, c.NumPaths, rows, rows*r.powA[r.k])
	case c.TotalHits != c.NumPaths*pathLen:
		return fmt.Errorf("%w: %d total hits recorded, but %d paths of %d vertices make %d",
			ErrCheckpointInvalid, c.TotalHits, c.NumPaths, pathLen, c.NumPaths*pathLen)
	}
	if want := c.adjSamples(plan, r.powA[r.k]); c.AdjChecked != want {
		return fmt.Errorf("%w: %d adjacency-checked paths recorded, but the done rows sample %d at stride %d",
			ErrCheckpointInvalid, c.AdjChecked, want, c.AdjStride)
	}
	var sum int64
	for _, h := range c.Hits {
		if h > c.TotalHits-sum { // sum ≤ TotalHits, so this cannot wrap
			return fmt.Errorf("%w: per-vertex hits add up to more than the %d total hits",
				ErrCheckpointInvalid, c.TotalHits)
		}
		sum += h
	}
	if sum != c.TotalHits {
		return fmt.Errorf("%w: per-vertex hits add up to %d, total hits recorded %d",
			ErrCheckpointInvalid, sum, c.TotalHits)
	}
	return nil
}

// doneRows is the number of enumeration rows the done shards cover.
func (c *Checkpoint) doneRows(plan shardPlan) int64 {
	var rows int64
	for s, done := range c.Done {
		if done {
			lo := int64(s) * plan.shardRows
			rows += min(lo+plan.shardRows, plan.rows) - lo
		}
	}
	return rows
}

// adjSamples is the number of paths the done shards check edge by
// edge: the multiples of the adjacency stride among the path indices
// [lo·aᵏ, hi·aᵏ) of each done shard's rows [lo, hi).
func (c *Checkpoint) adjSamples(plan shardPlan, aK int64) int64 {
	below := func(x int64) int64 { // multiples of the stride in [0, x)
		if x == 0 {
			return 0
		}
		return (x-1)/c.AdjStride + 1
	}
	var n int64
	for s, done := range c.Done {
		if done {
			lo := int64(s) * plan.shardRows
			hi := min(lo+plan.shardRows, plan.rows)
			n += below(hi*aK) - below(lo*aK)
		}
	}
	return n
}

// saveIntervalFloor is the least save interval (see CheckpointConfig).
// Tests raise it to pin the number of saves.
var saveIntervalFloor = time.Second

// shardBatch is a worker's completed but unmerged work: the shards and
// their summed tallies. Their hits are in the worker's vectors.
type shardBatch struct {
	shards                          []int64
	numPaths, totalHits, adjChecked int64
}

// add records a completed shard whose tallies are in ws.
func (b *shardBatch) add(shard int64, ws *workerState) {
	b.shards = append(b.shards, shard)
	b.numPaths += ws.numPaths
	b.totalHits += ws.totalHits
	b.adjChecked += ws.adjChecked
}

// merge folds a worker's batch into the checkpoint and empties the
// batch and the worker's vectors. Every field is an exact int64 sum, so
// merge order and timing — and therefore worker count and interruption
// pattern — cannot change the final state.
func (c *Checkpoint) merge(b *shardBatch, ws *workerState) {
	for _, s := range b.shards {
		c.Done[s] = true
	}
	c.DoneCount += int64(len(b.shards))
	c.NumPaths += b.numPaths
	c.TotalHits += b.totalHits
	c.AdjChecked += b.adjChecked
	hitVec(c.Hits).drain(ws.hits)
	hitVec(c.MetaHits).drain(ws.metaHits)
	*b = shardBatch{shards: b.shards[:0]}
}

// stats derives the Stats of the accumulated state.
func (c *Checkpoint) stats(r *Router, start time.Time) Stats {
	return Stats{
		Bound:            6 * r.powA[r.k],
		NumPaths:         c.NumPaths,
		TotalHits:        c.TotalHits,
		AdjacencyChecked: c.AdjChecked,
		MaxVertexHits:    hitVec(c.Hits).max(),
		MaxMetaHits:      hitVec(c.MetaHits).max(),
		Elapsed:          time.Since(start),
	}
}

// syncDir fsyncs the directory containing path, making a just-renamed
// entry durable. fsync on the file alone persists its *contents*; the
// rename is a mutation of the parent directory, and until that
// directory is synced a power loss can roll the rename back — leaving
// an older (or no) checkpoint at Path even though save returned
// success, so a -resume would silently restart from stale state.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// save atomically persists the checkpoint: encode into the reused
// buffer, write it to Path+".tmp" in one call, fsync, rename over Path,
// then fsync the parent directory so the rename itself survives power
// loss. When instrumented, the encode+write+fsync half is timed.
func (c *Checkpoint) save(path string, in *Instruments) error {
	start := time.Now()
	c.buf = c.appendTo(c.buf[:0])
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("routing: checkpoint: %w", err)
	}
	if _, err := f.Write(c.buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("routing: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("routing: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("routing: checkpoint close: %w", err)
	}
	if in != nil {
		in.CheckpointFsync.ObserveSince(start)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("routing: checkpoint rename: %w", err)
	}
	if err := syncDir(path); err != nil {
		return fmt.Errorf("routing: checkpoint dir sync: %w", err)
	}
	return nil
}

// appendTo appends the checkpoint's file image, SHA-256 trailer
// included, to b.
func (c *Checkpoint) appendTo(b []byte) []byte {
	start := len(b)
	b = append(b, ckptMagic...)
	b = binary.LittleEndian.AppendUint32(b, CheckpointVersion)
	b = append(b, c.algHash[:]...)
	b = binary.AppendUvarint(b, uint64(len(c.Alg)))
	b = append(b, c.Alg...)
	for _, v := range [...]int64{int64(c.K), int64(c.NumVertices), c.ShardRows, c.NumShards,
		c.AdjStride, c.NumPaths, c.TotalHits, c.AdjChecked} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for s := 0; s < len(c.Done); s += 8 {
		var bits byte
		for i, done := range c.Done[s:min(s+8, len(c.Done))] {
			if done {
				bits |= 1 << i
			}
		}
		b = append(b, bits)
	}
	for _, h := range c.Hits {
		b = binary.AppendUvarint(b, uint64(h))
	}
	for _, h := range c.MetaHits {
		b = binary.AppendUvarint(b, uint64(h))
	}
	sum := sha256.Sum256(b[start:])
	return append(b, sum[:]...)
}

// LoadCheckpoint reads a checkpoint file (for resume and inspection).
// A missing file returns an error satisfying errors.Is(err,
// fs.ErrNotExist); every other failure wraps ErrCheckpointInvalid.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCheckpointInvalid, err)
	}
	c, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// decodeCheckpoint parses a checkpoint file image. It trusts nothing
// it reads: the length and the checksum are checked before any field,
// each declared size is checked against the bytes that remain before
// anything is allocated, counters above MaxInt64 and non-minimal
// uvarints are rejected, and the body must be consumed exactly — so
// every accepted image re-encodes to itself.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	switch {
	case !bytes.HasPrefix(data, []byte(ckptMagic)):
		if bytes.Contains(data[:min(len(data), 64)], []byte("Checkpoint")) {
			// A gob stream opens with the definition of the encoded
			// struct type, name included.
			return nil, fmt.Errorf("%w: a version-1 (gob) checkpoint, which this build cannot read; delete it and rerun",
				ErrCheckpointInvalid)
		}
		return nil, fmt.Errorf("%w: not a checkpoint file (bad magic)", ErrCheckpointInvalid)
	case len(data) < ckptMinLen:
		return nil, fmt.Errorf("%w: truncated to %d bytes", ErrCheckpointInvalid, len(data))
	}
	body := data[:len(data)-sha256.Size]
	if sha256.Sum256(body) != [sha256.Size]byte(data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointInvalid)
	}
	// ckptMinLen guarantees the version, hash and name length are there.
	d := ckptDecoder{b: body[len(ckptMagic):]}
	if v := binary.LittleEndian.Uint32(d.next(4)); v != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCheckpointInvalid, v, CheckpointVersion)
	}
	c := &Checkpoint{}
	copy(c.algHash[:], d.next(sha256.Size))
	c.Alg = string(d.next(d.uvarint()))
	k, numVertices := d.count(), d.count()
	c.ShardRows, c.NumShards, c.AdjStride = d.count(), d.count(), d.count()
	c.NumPaths, c.TotalHits, c.AdjChecked = d.count(), d.count(), d.count()
	if d.err != nil {
		return nil, d.err
	}
	// Every counter takes at least one byte, so the declared sizes must
	// fit in what remains. Compared in int64: the conversions to int
	// below are exact only once these hold, on 32-bit hosts too.
	bitmapLen := c.NumShards/8 + min(c.NumShards%8, 1)
	rest := int64(len(d.b))
	if k > math.MaxInt32 || c.NumShards > math.MaxInt || bitmapLen > rest || numVertices > (rest-bitmapLen)/2 {
		return nil, fmt.Errorf("%w: k=%d, %d vertices and %d shards declared in %d bytes",
			ErrCheckpointInvalid, k, numVertices, c.NumShards, rest)
	}
	c.K, c.NumVertices = int(k), int(numVertices)
	bitmap := d.next(bitmapLen)
	c.Done = make([]bool, c.NumShards)
	for s := range c.Done {
		if bitmap[s/8]&(1<<(s%8)) != 0 {
			c.Done[s] = true
			c.DoneCount++
		}
	}
	if c.NumShards%8 != 0 && bitmap[len(bitmap)-1]>>(c.NumShards%8) != 0 {
		return nil, fmt.Errorf("%w: done bitmap has bits past shard %d", ErrCheckpointInvalid, c.NumShards)
	}
	c.Hits = make([]int64, c.NumVertices)
	c.MetaHits = make([]int64, c.NumVertices)
	for _, v := range [2][]int64{c.Hits, c.MetaHits} {
		for i := range v {
			v[i] = d.uvarint()
		}
	}
	switch {
	case d.err != nil:
		return nil, d.err
	case len(d.b) != 0:
		return nil, fmt.Errorf("%w: %d bytes after the last counter", ErrCheckpointInvalid, len(d.b))
	}
	return c, nil
}

// ckptDecoder reads a checkpoint body front to back. The first failure
// sticks: later reads return zero values and err keeps the cause.
type ckptDecoder struct {
	b   []byte
	err error
}

func (d *ckptDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCheckpointInvalid, fmt.Sprintf(format, args...))
	}
}

// next consumes n bytes, or fails and returns nil when fewer remain.
func (d *ckptDecoder) next(n int64) []byte {
	if d.err != nil {
		return nil
	}
	if n > int64(len(d.b)) {
		d.fail("truncated: %d bytes declared, %d left", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// count reads a fixed little-endian int64, which must be non-negative:
// every fixed field is a size, a depth or a tally.
func (d *ckptDecoder) count() int64 {
	p := d.next(8)
	if p == nil {
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(p))
	if v < 0 {
		d.fail("negative field %d", v)
		return 0
	}
	return v
}

// uvarint reads a minimally encoded uvarint no larger than MaxInt64.
func (d *ckptDecoder) uvarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	switch {
	case n <= 0:
		d.fail("malformed uvarint")
		return 0
	case v > math.MaxInt64:
		d.fail("counter %d exceeds MaxInt64", v)
		return 0
	case n > 1 && d.b[n-1] == 0:
		d.fail("non-minimal uvarint")
		return 0
	}
	d.b = d.b[n:]
	return int64(v)
}

// VerifyFullRoutingCheckpointed is VerifyFullRoutingParallel with
// sharded crash-safe persistence: completed shards are merged into a
// checkpoint file as the run proceeds (see CheckpointConfig for when),
// and a resumed run skips them, producing final Stats bit-identical to
// an uninterrupted run at any worker count. On a routing violation it
// reports exactly the error VerifyFullRouting reports (earliest
// enumeration position); the checkpoint keeps every shard merged
// before the error, and never one whose scan failed or was cut short.
// When MaxShards stops the run early, the returned error wraps
// ErrPaused and the Stats cover the completed shards only.
func (r *Router) VerifyFullRoutingCheckpointed(workers int, cfg CheckpointConfig) (Stats, error) {
	start := time.Now()
	r.Obs.noteStart(start)
	if cfg.Path == "" {
		return Stats{}, errors.New("routing: CheckpointConfig.Path is required")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	aK := r.powA[r.k]

	var cp *Checkpoint
	shardRows := cfg.ShardRows
	if cfg.Resume {
		loaded, err := LoadCheckpoint(cfg.Path)
		switch {
		case err == nil:
			if shardRows == 0 {
				shardRows = loaded.ShardRows // adopt the checkpoint's geometry
			}
			cp = loaded
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume: fresh run.
		default:
			return Stats{}, err
		}
	}
	plan := r.shardPlan(shardRows)
	if cp == nil {
		cp = r.newCheckpoint(plan)
	} else if err := r.checkpointCompat(cp, plan); err != nil {
		return Stats{}, err
	}

	if cp.DoneCount > 0 {
		// Credit the restored shards' work to the run's counters and the
		// caller's shard callback before anything re-runs, so a resumed
		// run's paths/adjacency gauges and /healthz coverage reach 100%
		// instead of ending short by the restored fraction — including
		// the fully-restored case below, which re-runs nothing at all.
		r.Obs.noteRestored(cp.NumPaths, cp.AdjChecked, cp.DoneCount)
		if cfg.OnShard != nil {
			cfg.OnShard(ShardDone{Shard: -1, Restored: true, Rows: cp.doneRows(plan),
				Paths: cp.NumPaths, Done: cp.DoneCount, Total: plan.numShards})
		}
	}
	pending := make([]int64, 0, plan.numShards-cp.DoneCount)
	for s := int64(0); s < plan.numShards; s++ {
		if !cp.Done[s] {
			pending = append(pending, s)
		}
	}
	if len(pending) == 0 {
		st := cp.stats(r, start)
		return st, r.checkFullRoutingBounds(st)
	}
	if !r.LinearAdjacency {
		r.G.EnsureAdjacencyIndex() // build once, before the fan-out
	}
	if !r.SeedEnumeration {
		r.G.EnsureMetaRootIndex() // likewise; seed kernel walks instead
	}

	maxClaims := int64(len(pending))
	if cfg.MaxShards > 0 && cfg.MaxShards < maxClaims {
		maxClaims = cfg.MaxShards
	}
	workers = clampWorkers(workers, maxClaims)

	var (
		next        atomic.Int64
		earliestErr atomic.Int64
		mu          sync.Mutex     // guards everything below
		completed   = cp.DoneCount // shards done, restored ones included
		dirty       bool           // merged since the last save
		lastSave    time.Time      // zero until the first save
		saveDur     time.Duration  // the last save's
		saveErr     error
		firstErr    error
		firstPos    = int64(math.MaxInt64)
	)
	earliestErr.Store(math.MaxInt64)
	interval := func() time.Duration { return max(saveIntervalFloor, 10*saveDur) }
	save := func() {
		span := r.Obs.startSpan("checkpoint_persist")
		span.SetAttr("shards_done", strconv.FormatInt(cp.DoneCount, 10))
		t := time.Now()
		if err := cp.save(cfg.Path, r.Obs); err != nil && saveErr == nil {
			saveErr = err
		}
		lastSave = time.Now()
		saveDur, dirty = lastSave.Sub(t), false
		span.End()
	}
	merge := func(b *shardBatch, ws *workerState) {
		span := r.Obs.startSpan("shard_merge")
		span.SetAttr("shards", strconv.Itoa(len(b.shards)))
		cp.merge(b, ws)
		span.End()
		dirty = true
		if lastSave.IsZero() || time.Since(lastSave) >= interval() {
			save()
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				ws        workerState
				batch     shardBatch
				lastMerge time.Time // zero until the worker's first merge
			)
		claim:
			for {
				if cfg.Stop != nil {
					select {
					case <-cfg.Stop:
						// Drain requested: claim nothing new, merge what
						// is done; the final save below persists it.
						break claim
					default:
					}
				}
				i := next.Add(1) - 1
				if i >= maxClaims {
					break
				}
				shard := pending[i]
				rowLo := shard * plan.shardRows
				rowHi := min(rowLo+plan.shardRows, plan.rows)
				// Shards are claimed in ascending row order, so an error
				// published before this shard precedes every later one
				// too: this worker is done.
				if earliestErr.Load() < rowLo*aK {
					break
				}
				if r.beforeShard != nil {
					r.beforeShard(shard, &earliestErr)
				}
				span := r.Obs.startSpan("shard_enumerate")
				span.SetAttr("shard", strconv.FormatInt(shard, 10))
				r.scanRange(w, workers, rowLo, rowHi, &earliestErr, &ws)
				span.SetAttr("paths", strconv.FormatInt(ws.numPaths, 10))
				span.End()
				if ws.err != nil || ws.cancelled {
					// The vectors now hold part of this shard on top of
					// the batch, so neither may merge: the batch's shards
					// stay pending and the state is dropped with the
					// worker. Every shard left to claim lies after the
					// published error, so the worker has nothing more to do.
					mu.Lock()
					if ws.err != nil && ws.errPos < firstPos {
						firstPos, firstErr = ws.errPos, ws.err
					}
					mu.Unlock()
					return
				}
				batch.add(shard, &ws)
				mu.Lock()
				if lastMerge.IsZero() || time.Since(lastMerge) >= interval() {
					merge(&batch, &ws)
					lastMerge = time.Now()
				}
				completed++
				if in := r.Obs; in != nil {
					in.ShardsDone.Inc()
				}
				if cfg.OnShard != nil {
					cfg.OnShard(ShardDone{Shard: shard, Rows: rowHi - rowLo,
						Paths: ws.numPaths, Done: completed, Total: plan.numShards})
				}
				mu.Unlock()
			}
			if len(batch.shards) > 0 {
				mu.Lock()
				merge(&batch, &ws)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if dirty {
		save()
	}
	st := cp.stats(r, start)
	switch {
	case saveErr != nil:
		// A run that cannot persist is not crash-safe: fail loudly
		// rather than report progress that would be lost.
		return st, saveErr
	case firstErr != nil:
		return st, firstErr
	case cp.DoneCount < plan.numShards:
		return st, fmt.Errorf("%w: %d/%d shards done (checkpoint %s)",
			ErrPaused, cp.DoneCount, plan.numShards, cfg.Path)
	}
	return st, r.checkFullRoutingBounds(st)
}
