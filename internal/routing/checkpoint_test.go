package routing

// Tests for the sharded checkpoint/resume layer: interrupt-anywhere
// bit-identical resume, worker-count independence, compatibility
// rejection, pause semantics, and deterministic error reporting.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/obs"
)

// TestCheckpointResumeBitIdentical is the round-trip property test:
// for every interruption point i, a run killed after shard i (via
// MaxShards) and resumed to completion — across *varying* worker
// counts — reports Stats bit-identical (Elapsed aside) to an
// uninterrupted parallel run and to the sequential verifier.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 3) // aK = 64, 128 rows
	want, err := r.VerifyFullRouting()
	if err != nil {
		t.Fatal(err)
	}
	want.Elapsed = 0

	const shardRows = 16 // 8 shards
	workersAt := []int{1, 2, 7, 3, 5, 4, 2, 1, 6}
	for interrupt := int64(1); interrupt <= 7; interrupt++ {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		// First leg: complete exactly `interrupt` shards, then stop.
		st, err := r.VerifyFullRoutingCheckpointed(workersAt[interrupt%int64(len(workersAt))], CheckpointConfig{
			Path: path, ShardRows: shardRows, MaxShards: interrupt, Resume: true,
		})
		if !errors.Is(err, ErrPaused) {
			t.Fatalf("interrupt=%d: expected ErrPaused, got %v", interrupt, err)
		}
		if st.NumPaths >= want.NumPaths {
			t.Fatalf("interrupt=%d: paused run already enumerated %d of %d paths", interrupt, st.NumPaths, want.NumPaths)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("interrupt=%d: %v", interrupt, err)
		}
		if cp.DoneCount != interrupt {
			t.Fatalf("interrupt=%d: checkpoint has %d shards done", interrupt, cp.DoneCount)
		}
		// Second leg: resume with a different worker count.
		st, err = r.VerifyFullRoutingCheckpointed(workersAt[(interrupt+3)%int64(len(workersAt))], CheckpointConfig{
			Path: path, ShardRows: shardRows, Resume: true,
		})
		if err != nil {
			t.Fatalf("interrupt=%d resume: %v", interrupt, err)
		}
		st.Elapsed = 0
		if st != want {
			t.Fatalf("interrupt=%d:\nresumed      %+v\nuninterrupted %+v", interrupt, st, want)
		}
	}
}

// TestCheckpointedMatchesParallelWithoutInterrupt pins the zero-
// interruption case at several worker counts and shard sizes,
// including a shard size that does not divide the row count.
func TestCheckpointedMatchesParallelWithoutInterrupt(t *testing.T) {
	r := mustRouter(t, bilinear.DisconnectedFast(), 2) // a = 16, aK = 256
	want, err := r.VerifyFullRoutingParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	want.Elapsed = 0
	for _, shardRows := range []int64{1, 7, 64, 512, 100000} {
		for _, w := range []int{1, 3, 8} {
			st, err := r.VerifyFullRoutingCheckpointed(w, CheckpointConfig{
				Path: filepath.Join(t.TempDir(), "run.ckpt"), ShardRows: shardRows,
			})
			if err != nil {
				t.Fatalf("shardRows=%d workers=%d: %v", shardRows, w, err)
			}
			st.Elapsed = 0
			if st != want {
				t.Fatalf("shardRows=%d workers=%d:\ncheckpointed %+v\nplain        %+v", shardRows, w, st, want)
			}
		}
	}
}

// TestCheckpointAlreadyCompleteResume verifies that resuming a finished
// checkpoint re-derives the final Stats from the cached state alone,
// without re-enumerating any path.
func TestCheckpointAlreadyCompleteResume(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	first, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Any re-enumeration would call Progress; forbid it.
	r.Progress = func(Progress) { t.Error("resume of a complete checkpoint re-enumerated paths") }
	again, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4, Resume: true})
	r.Progress = nil
	if err != nil {
		t.Fatal(err)
	}
	first.Elapsed, again.Elapsed = 0, 0
	if first != again {
		t.Fatalf("cached stats differ:\nfirst %+v\nagain %+v", first, again)
	}
}

// TestCheckpointCompatRejected pins the guard rails: a checkpoint from
// a different (alg, k) or shard geometry or adjacency stride must be
// rejected, not silently merged.
func TestCheckpointCompatRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	r2 := mustRouter(t, bilinear.Strassen(), 2)
	if _, err := r2.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4}); err != nil {
		t.Fatal(err)
	}

	r3 := mustRouter(t, bilinear.Strassen(), 3)
	if _, err := r3.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4, Resume: true}); err == nil {
		t.Fatal("k mismatch accepted")
	}
	if _, err := r2.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 8, Resume: true}); err == nil {
		t.Fatal("shard-size mismatch accepted")
	}
	r2b := mustRouter(t, bilinear.Strassen(), 2)
	r2b.AdjacencySampleStride = 1
	if _, err := r2b.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4, Resume: true}); err == nil {
		t.Fatal("adjacency-stride mismatch accepted")
	}
	rw := mustRouter(t, bilinear.Winograd(), 2)
	if _, err := rw.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4, Resume: true}); err == nil {
		t.Fatal("algorithm mismatch accepted")
	}
	// Without Resume, an existing incompatible file is simply replaced.
	if _, err := rw.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 4}); err != nil {
		t.Fatalf("fresh run over existing file: %v", err)
	}

	// A torn/garbage file must be a load error, not a fresh start.
	bad := filepath.Join(dir, "torn.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: bad, ShardRows: 4, Resume: true}); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

// TestCheckpointReportsSequentialError pins error determinism through
// the checkpoint engine: a corrupted routing reports exactly the
// sequential verifier's error at any worker count, and the checkpoint
// never marks the failing shard done.
func TestCheckpointReportsSequentialError(t *testing.T) {
	r := corruptRouter(t, 3)
	_, seqErr := r.VerifyFullRouting()
	if seqErr == nil {
		t.Fatal("sequential verifier accepted a corrupted matching")
	}
	for _, w := range []int{1, 2, 7} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		_, err := r.VerifyFullRoutingCheckpointed(w, CheckpointConfig{Path: path, ShardRows: 8})
		if err == nil {
			t.Fatalf("workers=%d: corrupted matching accepted", w)
		}
		if err.Error() != seqErr.Error() {
			t.Fatalf("workers=%d:\ncheckpointed %v\nsequential   %v", w, err, seqErr)
		}
		if cp, loadErr := LoadCheckpoint(path); loadErr == nil && cp.DoneCount >= cp.NumShards {
			t.Fatalf("workers=%d: checkpoint claims completion despite error", w)
		}
	}
}

// TestCheckpointOnShardAndPlan checks the shard geometry and the
// OnShard observability stream: every pending shard reported once,
// cumulative Done strictly increasing to NumShards.
func TestCheckpointOnShardAndPlan(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2) // 32 rows
	plan := r.shardPlan(5)
	if plan.rows != 32 || plan.shardRows != 5 || plan.numShards != 7 {
		t.Fatalf("plan = %+v", plan)
	}
	if p := r.shardPlan(0); p.shardRows < 1 || p.numShards < 1 {
		t.Fatalf("default plan = %+v", p)
	}
	if p := r.shardPlan(1 << 40); p.shardRows != p.rows || p.numShards != 1 {
		t.Fatalf("oversized shard plan = %+v", p)
	}

	seen := make(map[int64]int)
	var last int64
	_, err := r.VerifyFullRoutingCheckpointed(1, CheckpointConfig{
		Path: filepath.Join(t.TempDir(), "run.ckpt"), ShardRows: 5,
		OnShard: func(d ShardDone) {
			seen[d.Shard]++
			if d.Done <= last || d.Total != 7 {
				t.Errorf("non-monotonic shard notification: %+v after done=%d", d, last)
			}
			last = d.Done
			wantRows := int64(5)
			if d.Shard == 6 {
				wantRows = 2 // 32 = 6*5 + 2
			}
			if d.Rows != wantRows || d.Paths != wantRows*16 {
				t.Errorf("shard %d: rows=%d paths=%d", d.Shard, d.Rows, d.Paths)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 || last != 7 {
		t.Fatalf("saw %d distinct shards, final done %d", len(seen), last)
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("shard %d reported %d times", s, n)
		}
	}
}

// TestResumeCreditsRestoredWork is the regression test for resumed-run
// observability: the Paths/AdjChecks counters and the OnShard stream
// must account for restored shards, so coverage reaches 100% on a
// resumed run — previously only ShardsSkipped moved, and a resume of a
// *complete* checkpoint emitted nothing at all.
func TestResumeCreditsRestoredWork(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 3) // 128 rows
	want, err := r.VerifyFullRouting()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err = r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{
		Path: path, ShardRows: 16, MaxShards: 3, // pause at 3/8 shards
	})
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("expected ErrPaused, got %v", err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	// Resume in a fresh "process": new instruments, empty counters. The
	// run must credit the restored 3 shards up front and end with the
	// full-run totals.
	r.Obs = NewInstruments(obs.NewRegistry())
	var restored []ShardDone
	var lastDone int64
	st, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{
		Path: path, ShardRows: 16, Resume: true,
		OnShard: func(d ShardDone) {
			if d.Restored {
				restored = append(restored, d)
			}
			lastDone = d.Done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumPaths != want.NumPaths {
		t.Fatalf("resumed stats: %d paths, want %d", st.NumPaths, want.NumPaths)
	}
	if got := r.Obs.Paths.Value(); got != want.NumPaths {
		t.Errorf("Paths counter %d, want %d (restored work not credited)", got, want.NumPaths)
	}
	if got := r.Obs.AdjChecks.Value(); got != want.AdjacencyChecked {
		t.Errorf("AdjChecks counter %d, want %d", got, want.AdjacencyChecked)
	}
	if got := r.Obs.ShardsSkipped.Value(); got != 3 {
		t.Errorf("ShardsSkipped %d, want 3", got)
	}
	if len(restored) != 1 {
		t.Fatalf("%d restored notifications, want exactly 1", len(restored))
	}
	if d := restored[0]; d.Shard != -1 || d.Done != 3 || d.Total != 8 ||
		d.Rows != 48 || d.Paths != cp.NumPaths {
		t.Fatalf("restored notification %+v (checkpoint had %d paths)", d, cp.NumPaths)
	}
	if lastDone != 8 {
		t.Fatalf("final OnShard done %d, want 8", lastDone)
	}

	// Resuming the now-complete checkpoint re-runs nothing but must
	// still credit everything: counters at full totals, one restored
	// notification covering all shards.
	r.Obs = NewInstruments(obs.NewRegistry())
	restored = nil
	st, err = r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{
		Path: path, ShardRows: 16, Resume: true,
		OnShard: func(d ShardDone) {
			if !d.Restored {
				t.Errorf("complete checkpoint re-ran shard %d", d.Shard)
			}
			restored = append(restored, d)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumPaths != want.NumPaths {
		t.Fatalf("fully-restored stats: %d paths, want %d", st.NumPaths, want.NumPaths)
	}
	if got := r.Obs.Paths.Value(); got != want.NumPaths {
		t.Errorf("fully-restored Paths counter %d, want %d", got, want.NumPaths)
	}
	if len(restored) != 1 || restored[0].Done != 8 || restored[0].Total != 8 || restored[0].Rows != 128 {
		t.Fatalf("fully-restored notifications %+v, want one covering all 8 shards", restored)
	}
	r.Obs = nil
}

// TestCancelledShardStaysPending pins that a shard whose scan another
// worker's earlier error cut short is never merged or saved as done. A
// hook publishes an error position inside shard 2's first row, as a
// concurrent worker that failed there would, after the worker claimed
// the shard: the scan stops at the shard's second row. The saved file
// must leave the shard pending and stay valid, and a resume of it over
// a corrupted matching must report the routing error, not reject the
// file. Both the scratch and the fan kernel are checked.
func TestCancelledShardStaysPending(t *testing.T) {
	for _, orbits := range []bool{false, true} {
		t.Run(fmt.Sprintf("orbits=%t", orbits), func(t *testing.T) {
			corrupt := corruptRouter(t, 3) // 128 rows of 64 paths
			corrupt.OrbitReduction = orbits
			healthy, err := NewRouter(corrupt.G)
			if err != nil {
				t.Fatal(err)
			}
			healthy.AdjacencySampleStride = corrupt.AdjacencySampleStride
			healthy.OrbitReduction = orbits
			const shardRows, cancelled = 2, 2 // 64 shards
			aK := healthy.powA[healthy.k]
			healthy.beforeShard = func(shard int64, earliestErr *atomic.Int64) {
				if shard == cancelled {
					earliestErr.Store(cancelled*shardRows*aK + aK/2)
				}
			}
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if _, err := healthy.VerifyFullRoutingCheckpointed(1, CheckpointConfig{
				Path: path, ShardRows: shardRows,
			}); err == nil {
				t.Fatal("a run with a published error reported success")
			}
			cp, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := healthy.checkpointCompat(cp, healthy.shardPlan(shardRows)); err != nil {
				t.Fatalf("saved checkpoint does not resume: %v", err)
			}
			if cp.DoneCount == 0 || cp.Done[cancelled] {
				t.Fatalf("saved checkpoint: %d shards done, cancelled shard done %t; want the first shard done and the cancelled one pending",
					cp.DoneCount, cp.Done[cancelled])
			}

			// The resumed run scans the pending shards in order, so it
			// reports the first error after the done prefix.
			first := int64(0)
			for cp.Done[first] {
				first++
			}
			var want workerState
			var none atomic.Int64
			none.Store(math.MaxInt64)
			corrupt.scanRows(0, 1, first*shardRows, corrupt.numRows(), &none, &want)
			if want.err == nil {
				t.Fatal("the corrupted matching has no error past the done shards")
			}
			_, err = corrupt.VerifyFullRoutingCheckpointed(1, CheckpointConfig{
				Path: path, ShardRows: shardRows, Resume: true,
			})
			if err == nil || err.Error() != want.err.Error() {
				t.Fatalf("resume reported %v, want the routing error %v", err, want.err)
			}
		})
	}
}

// TestCheckpointSavesBoundedByTime pins the save schedule: with the
// save interval raised past the run's length, a 128-shard run on two
// workers saves exactly twice — after the first merge and at the end —
// and every file OnShard can read after the first save is a valid
// checkpoint that resumes.
func TestCheckpointSavesBoundedByTime(t *testing.T) {
	defer func(d time.Duration) { saveIntervalFloor = d }(saveIntervalFloor)
	saveIntervalFloor = time.Hour
	r := mustRouter(t, bilinear.Strassen(), 3) // 128 rows
	want, err := r.VerifyFullRouting()
	if err != nil {
		t.Fatal(err)
	}
	want.Elapsed = 0
	r.Obs = NewInstruments(obs.NewRegistry())
	defer func() { r.Obs = nil }()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	plan := r.shardPlan(1)
	var loads int
	st, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{
		Path: path, ShardRows: 1,
		OnShard: func(ShardDone) {
			cp, err := LoadCheckpoint(path)
			if errors.Is(err, fs.ErrNotExist) && loads == 0 {
				return // not saved yet
			}
			if err != nil {
				t.Errorf("file read after a save: %v", err)
				return
			}
			if err := r.checkpointCompat(cp, plan); err != nil {
				t.Errorf("file read after a save: %v", err)
			}
			loads++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Elapsed = 0
	if st != want {
		t.Fatalf("checkpointed %+v, plain %+v", st, want)
	}
	if n := r.Obs.CheckpointFsync.Count(); n != 2 {
		t.Fatalf("%d saves, want 2 (first merge, end of run)", n)
	}
	if loads == 0 {
		t.Fatal("OnShard never saw a saved file")
	}
}

// TestCheckpointAllocsFlatInShards pins that a shard costs its scan and
// no per-vertex allocation: a checkpointed Strassen k=4 run on two
// workers allocates less than 8 KiB more per extra shard at 128 shards
// than at 8. Fresh per-shard vectors would cost ~380 KB a shard.
func TestCheckpointAllocsFlatInShards(t *testing.T) {
	for _, orbits := range []bool{false, true} {
		t.Run(fmt.Sprintf("orbits=%t", orbits), func(t *testing.T) {
			r := mustRouter(t, bilinear.Strassen(), 4) // 512 rows
			r.OrbitReduction = orbits
			r.G.EnsureAdjacencyIndex()
			r.G.EnsureMetaRootIndex()
			alloc := func(shardRows int64) (bytes, shards int64) {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: shardRows}); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return int64(after.TotalAlloc - before.TotalAlloc), r.shardPlan(shardRows).numShards
			}
			few, fewShards := alloc(64)
			many, manyShards := alloc(4)
			per := (many - few) / (manyShards - fewShards)
			t.Logf("%d shards: %d B; %d shards: %d B; %d B per extra shard", fewShards, few, manyShards, many, per)
			if per >= 8<<10 {
				t.Fatalf("%d shards allocate %d B, %d shards %d B: %d B per extra shard, want < 8 KiB",
					fewShards, few, manyShards, many, per)
			}
		})
	}
}

// TestFanWalksFlatInShards pins that the checkpointed engine walks each
// junction's fan once per merge, not once per shard. With the save
// interval raised past the run, a Strassen k=4 run on two workers
// merges at most each worker's first shard before the end, and the
// final pass walks each of the 2·n₀ᵏ keys once, so the run walks at
// most 2·n₀ᵏ fans plus one shard's keys per worker at any shard size.
// Walking the fans per shard took 512 walks at ShardRows 1.
func TestFanWalksFlatInShards(t *testing.T) {
	defer func(d time.Duration) { saveIntervalFloor = d }(saveIntervalFloor)
	saveIntervalFloor = time.Hour
	const workers = 2
	r := mustRouter(t, bilinear.Strassen(), 4) // 512 rows, 16 keys a side
	r.OrbitReduction = true
	want, err := r.VerifyFullRoutingParallel(workers)
	if err != nil {
		t.Fatal(err)
	}
	want.Elapsed = 0
	for _, shardRows := range []int64{1, 4, 64} {
		r.fanWalks.Store(0)
		st, err := r.VerifyFullRoutingCheckpointed(workers, CheckpointConfig{
			Path: filepath.Join(t.TempDir(), "run.ckpt"), ShardRows: shardRows,
		})
		if err != nil {
			t.Fatal(err)
		}
		st.Elapsed = 0
		if st != want {
			t.Fatalf("shardRows=%d: checkpointed %+v, plain %+v", shardRows, st, want)
		}
		bound := 2*r.powN[r.k] + workers*maxShardKeys(r, shardRows)
		walks := r.fanWalks.Load()
		t.Logf("shardRows=%d: %d fan walks, bound %d", shardRows, walks, bound)
		if walks > bound {
			t.Fatalf("shardRows=%d: %d fan walks, want at most %d", shardRows, walks, bound)
		}
	}
}

// maxShardKeys is the most distinct junction keys — a side with the
// column digits j of a_ij, or the row digits i of b_ij — that the rows
// of one shard carry.
func maxShardKeys(r *Router, shardRows int64) int64 {
	plan := r.shardPlan(shardRows)
	n0 := int64(r.n0)
	var most int64
	for lo := int64(0); lo < plan.rows; lo += plan.shardRows {
		keys := make(map[[2]int64]bool)
		for row := lo; row < min(lo+plan.shardRows, plan.rows); row++ {
			side, in := r.rowOf(row)
			var key int64
			for p := r.k - 1; p >= 0; p-- {
				d := in / r.powA[p] % r.a // i·n₀ + j
				if side == bilinear.SideA {
					key = key*n0 + d%n0
				} else {
					key = key*n0 + d/n0
				}
			}
			keys[[2]int64{int64(side), key}] = true
		}
		most = max(most, int64(len(keys)))
	}
	return most
}

// TestCheckpointFileSameAtAnyWorkers pins that how the final fan pass
// splits the keys cannot reach a saved file: complete and paused
// checkpoints of one shard size are byte-identical at 1, 2 and 3
// workers (3 split the keys unevenly), and the complete one holds the
// plain run's hit vector.
func TestCheckpointFileSameAtAnyWorkers(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 4)
	r.OrbitReduction = true
	_, wantHits, err := r.VerifyFullRoutingHits(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, shardRows := range []int64{4, 64} {
		for _, maxShards := range []int64{0, 5} {
			var first []byte
			for _, w := range []int{1, 2, 3} {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				_, err := r.VerifyFullRoutingCheckpointed(w, CheckpointConfig{
					Path: path, ShardRows: shardRows, MaxShards: maxShards,
				})
				if maxShards > 0 && !errors.Is(err, ErrPaused) || maxShards == 0 && err != nil {
					t.Fatalf("shardRows=%d maxShards=%d workers=%d: %v", shardRows, maxShards, w, err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = data
					if maxShards == 0 {
						cp, err := decodeCheckpoint(data)
						if err != nil {
							t.Fatal(err)
						}
						if err := diffHits(cp.Hits, wantHits); err != nil {
							t.Fatalf("shardRows=%d: checkpoint hits: %v", shardRows, err)
						}
					}
					continue
				}
				if !bytes.Equal(data, first) {
					t.Fatalf("shardRows=%d maxShards=%d: the file at %d workers differs from the one at 1", shardRows, maxShards, w)
				}
			}
		}
	}
}
