package routing

// Tests for the job-shaped entry point and the content-addressed
// cache keys the verification service builds on: RunJob must match
// the underlying verifiers bit for bit, CacheKey must collide exactly
// when certificates are guaranteed identical, and the Stop channel
// must drain a run into a resumable checkpoint.

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"pathrouting/internal/bilinear"
)

// TestRunJobMatchesVerifier: the job pipeline (graph + matching +
// checkpointed verify in one call) reports Stats bit-identical to the
// directly-driven verifier.
func TestRunJobMatchesVerifier(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 2)
	want, err := r.VerifyFullRoutingParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	want.Elapsed = 0

	var shards int
	st, err := RunJob(context.Background(), JobConfig{
		Alg: bilinear.Strassen(), K: 2, Workers: 2,
		CheckpointPath: filepath.Join(t.TempDir(), "job.ckpt"),
		Resume:         true,
		OnShard:        func(ShardDone) { shards++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Elapsed = 0
	if st != want {
		t.Fatalf("RunJob stats %+v, verifier %+v", st, want)
	}
	if shards == 0 {
		t.Fatal("OnShard never called")
	}
}

// TestRunJobValidation: construction errors surface before any
// enumeration runs.
func TestRunJobValidation(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "job.ckpt")
	if _, err := RunJob(context.Background(), JobConfig{K: 2, CheckpointPath: ckpt}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := RunJob(context.Background(), JobConfig{Alg: bilinear.Strassen(), K: 0, CheckpointPath: ckpt}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := RunJob(context.Background(), JobConfig{Alg: bilinear.Strassen(), K: 2}); err == nil {
		t.Fatal("missing checkpoint path accepted")
	}
}

// TestRunJobStopDrains: closing Stop pauses the run at shard
// granularity with a resumable checkpoint; resuming completes to
// Stats bit-identical to an uninterrupted run.
func TestRunJobStopDrains(t *testing.T) {
	want, err := RunJob(context.Background(), JobConfig{
		Alg: bilinear.Strassen(), K: 3, Workers: 2,
		CheckpointPath: filepath.Join(t.TempDir(), "fresh.ckpt"), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want.Elapsed = 0

	path := filepath.Join(t.TempDir(), "job.ckpt")
	stop := make(chan struct{})
	cfg := JobConfig{
		Alg: bilinear.Strassen(), K: 3, Workers: 2, ShardRows: 16, // 8 shards
		CheckpointPath: path, Resume: true, Stop: stop,
		OnShard: func(d ShardDone) {
			if d.Done == 2 {
				close(stop) // drain after the second shard completes
			}
		},
	}
	st, err := RunJob(context.Background(), cfg)
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("drained run: err = %v, want ErrPaused", err)
	}
	if st.NumPaths >= want.NumPaths {
		t.Fatalf("drained run enumerated everything (%d paths)", st.NumPaths)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.DoneCount == 0 || cp.DoneCount == cp.NumShards {
		t.Fatalf("checkpoint has %d/%d shards — not a mid-job drain", cp.DoneCount, cp.NumShards)
	}

	cfg.Stop, cfg.OnShard = nil, nil
	st, err = RunJob(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Elapsed = 0
	if st != want {
		t.Fatalf("resumed stats %+v, uninterrupted %+v", st, want)
	}
}

// TestCacheKeyContentAddressed: keys collide exactly when the
// certificate is guaranteed identical.
func TestCacheKeyContentAddressed(t *testing.T) {
	strassen := bilinear.Strassen()
	base := CacheKey(strassen, 3, 0, false)

	// Stable across calls, and across the name of the algorithm.
	renamed := bilinear.Strassen()
	renamed.Name = "strassen-by-any-other-name"
	if got := CacheKey(renamed, 3, 0, false); got != base {
		t.Fatalf("renamed algorithm changed the key: %s vs %s", got, base)
	}
	// Normalization: 0 = default stride.
	if got := CacheKey(strassen, 3, defaultAdjacencyStride, false); got != base {
		t.Fatalf("normalized key %s differs from base %s", got, base)
	}

	// Every certificate-relevant parameter must change the key.
	distinct := map[string]string{
		"base":    base,
		"k":       CacheKey(strassen, 4, 0, false),
		"stride":  CacheKey(strassen, 3, 1, false),
		"orbits":  CacheKey(strassen, 3, 0, true),
		"alg":     CacheKey(bilinear.Winograd(), 3, 0, false),
		"nonfast": CacheKey(bilinear.Classical(2), 3, 0, false),
	}
	seen := map[string]string{}
	for which, key := range distinct {
		if prev, dup := seen[key]; dup {
			t.Fatalf("cache keys for %q and %q collide: %s", which, prev, key)
		}
		seen[key] = which
	}
}

// TestCacheKeyPinned pins CacheKey's hex values for specs the service
// accepts. The service's result cache spills one file per key, and
// each job's spec.json persists its key, so a changed key would turn
// every spilled certificate into a miss and strand persisted jobs.
// The values were recorded before the kernel parameter left CacheKey,
// when these specs named the scratch kernel ("" or "scratch").
func TestCacheKeyPinned(t *testing.T) {
	for _, c := range []struct {
		alg    *bilinear.Algorithm
		k      int
		stride int64
		orbits bool
		want   string
	}{
		{bilinear.Strassen(), 3, 0, false, "69a8e5f93d0dce007b0096ebdc2861034eaa29269ad33676bde7c890f7018be0"},
		{bilinear.Strassen(), 3, 0, true, "f83de9ae4179e80769389b620845af73f6b8d956fb2becb04568dc37960ea3c5"},
		{bilinear.Strassen(), 3, 257, false, "69a8e5f93d0dce007b0096ebdc2861034eaa29269ad33676bde7c890f7018be0"},
		{bilinear.Strassen(), 5, 1, true, "3ff9b014ef92e8076dd229600e593d3d8635c964ec1f788abdbca5423b34f067"},
		{bilinear.Strassen(), 2, 7, false, "490c0f5d8b46cea1e35134c60f665b79ee175301e7775f24eecc45bd4afece57"},
		{bilinear.Winograd(), 4, 0, true, "f7292981ea1cddeb465afca3a8257b9c236701dcb41410a62f447acad6e78c78"},
		{bilinear.Classical(2), 2, 0, false, "c5acc21c7019ed319271192877d379b4cee845af96083c03f55034710f637fc1"},
	} {
		if got := CacheKey(c.alg, c.k, c.stride, c.orbits); got != c.want {
			t.Errorf("CacheKey(%s, k=%d, stride=%d, orbits=%t) = %s, want %s",
				c.alg.Name, c.k, c.stride, c.orbits, got, c.want)
		}
	}
}

// TestAlgorithmHashCoefficientSensitivity: the hash covers every
// coefficient, so a single-entry perturbation changes it.
func TestAlgorithmHashCoefficientSensitivity(t *testing.T) {
	a, b := bilinear.Strassen(), bilinear.Strassen()
	if AlgorithmHash(a) != AlgorithmHash(b) {
		t.Fatal("hash not deterministic")
	}
	b.W[0][0] = b.W[0][0].Neg()
	if AlgorithmHash(a) == AlgorithmHash(b) {
		t.Fatal("flipping a decoding coefficient did not change the hash")
	}
}
