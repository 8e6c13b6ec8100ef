package routing

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pathrouting/internal/bilinear"
)

// BenchmarkCheckpointSave times one checkpoint save at Strassen k=5,
// the size of a job-k5 checkpoint: encode into the reused
// buffer, write, fsync, rename and directory sync. The checkpoint is a
// complete one, so the counters have their final widths.
func BenchmarkCheckpointSave(b *testing.B) {
	r := mustRouter(b, bilinear.Strassen(), 5)
	r.OrbitReduction = true
	path := filepath.Join(b.TempDir(), "run.ckpt")
	if _, err := r.VerifyFullRoutingCheckpointed(0, CheckpointConfig{Path: path}); err != nil {
		b.Fatal(err)
	}
	c, err := LoadCheckpoint(path)
	if err != nil {
		b.Fatal(err)
	}
	// The first save sizes the encode buffer; time the steady state.
	if err := c.save(path, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.save(path, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "file_bytes")
}

// BenchmarkRunJob times the checkpointed engine's whole job in process:
// RunJob on Strassen k=5 with the orbit-reduced scan, two workers and
// 64-row shards (32 shards), as the job-k5 workload runs it, each job
// into a fresh checkpoint file. It builds G_k and the router, scans,
// merges and saves.
func BenchmarkRunJob(b *testing.B) {
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("job-%d.ckpt", i))
		st, err := RunJob(context.Background(), JobConfig{
			Alg: bilinear.Strassen(), K: 5, Workers: 2, Orbits: true,
			CheckpointPath: path, ShardRows: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.NumPaths != 2<<20 {
			b.Fatalf("%d paths, want %d", st.NumPaths, 2<<20)
		}
		os.Remove(path)
	}
}
