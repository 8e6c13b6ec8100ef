package routing

import (
	"os"
	"path/filepath"
	"testing"

	"pathrouting/internal/bilinear"
)

// BenchmarkCheckpointSave times one checkpoint save at Strassen k=5,
// the size job-k5 rewrites after every shard: encode into the reused
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
