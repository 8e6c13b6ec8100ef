package routing

// Tests for the checkpoint file format: what LoadCheckpoint rejects,
// the tally checks resume applies to a well-formed file, single-bit
// corruption, bounded allocation on hostile headers, allocation-free
// steady-state saves, and a fuzz target over the byte-level decoder.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pathrouting/internal/bilinear"
)

// checkpointImage returns the checkpoint file of a Strassen G_k run
// with shardRows-row shards, paused after maxShards (0 = complete).
func checkpointImage(tb testing.TB, k int, shardRows, maxShards int64) []byte {
	tb.Helper()
	r := mustRouter(tb, bilinear.Strassen(), k)
	path := filepath.Join(tb.TempDir(), "run.ckpt")
	_, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: shardRows, MaxShards: maxShards})
	if maxShards > 0 && !errors.Is(err, ErrPaused) || maxShards == 0 && err != nil {
		tb.Fatalf("k=%d maxShards=%d: %v", k, maxShards, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// withTrailer returns body followed by its SHA-256, the trailer a
// well-formed file ends in.
func withTrailer(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body[:len(body):len(body)], sum[:]...)
}

// TestLoadCheckpointRejects pins the load-time rejections: each one
// wraps ErrCheckpointInvalid, and a version-1 (gob) file says what to
// do about it. A missing file is the one failure that is not invalid.
func TestLoadCheckpointRejects(t *testing.T) {
	good := checkpointImage(t, 2, 4, 3)
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-strassen-k2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	body := good[:len(good)-sha256.Size]
	future := bytes.Clone(body)
	future[len(ckptMagic)] = CheckpointVersion + 1
	trailing := append(bytes.Clone(body), 0)
	// withFirstHit re-encodes the first Hits counter, a one-byte uvarint
	// in this file, as enc.
	hitsAt := len(ckptMagic) + 4 + sha256.Size + 1 + len("strassen") + 8*8 + 1
	if body[hitsAt] >= 0x80 {
		t.Fatalf("first hit counter is not a one-byte uvarint")
	}
	withFirstHit := func(enc ...byte) []byte {
		b := append(append(bytes.Clone(body[:hitsAt]), enc...), body[hitsAt+1:]...)
		return withTrailer(b)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"v1 gob file", "version-1 (gob) checkpoint", v1},
		{"garbage", "bad magic", []byte("not a checkpoint")},
		{"empty", "bad magic", nil},
		{"truncated", "truncated", good[:ckptMinLen-1]},
		{"truncated body", "checksum mismatch", good[:len(good)-1]},
		{"bad checksum", "checksum mismatch", append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^1)},
		{"future version", "version 3", withTrailer(future)},
		{"trailing bytes", "after the last counter", withTrailer(trailing)},
		{"non-minimal uvarint", "non-minimal", withFirstHit(body[hitsAt]|0x80, 0)},
		{"counter past MaxInt64", "exceeds MaxInt64", withFirstHit(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".ckpt")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path)
		if !errors.Is(err, ErrCheckpointInvalid) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want ErrCheckpointInvalid mentioning %q", tc.name, err, tc.want)
		}
		if tc.name == "v1 gob file" && err != nil && (!strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "delete it and rerun")) {
			t.Errorf("v1 message does not name the file and the remedy: %v", err)
		}
	}
	_, err = LoadCheckpoint(filepath.Join(dir, "missing.ckpt"))
	if !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCheckpointInvalid) {
		t.Errorf("missing file: got %v, want fs.ErrNotExist only", err)
	}
}

// TestCheckpointResumeRejectsTamperedTallies: a checkpoint rewritten
// with one field changed and a fresh trailer passes the checksum, so
// only resume's consistency checks stand between it and the
// certificate. Every such file must be refused.
func TestCheckpointResumeRejectsTamperedTallies(t *testing.T) {
	r := mustRouter(t, bilinear.Strassen(), 3) // 128 rows, aᵏ = 64
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if _, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 16, MaxShards: 3}); !errors.Is(err, ErrPaused) {
		t.Fatalf("expected ErrPaused, got %v", err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	busiest := func(c *Checkpoint) int {
		v := 0
		for i, h := range c.Hits {
			if h > c.Hits[v] {
				v = i
			}
		}
		return v
	}
	for _, tc := range []struct {
		name   string
		tamper func(*Checkpoint)
	}{
		{"paths", func(c *Checkpoint) { c.NumPaths += 64 }},
		{"total hits", func(c *Checkpoint) { c.TotalHits-- }},
		{"one vertex lowered", func(c *Checkpoint) { c.Hits[busiest(c)]-- }},
		// ΣHits still equals TotalHits: only the paths × (6k+4) rule
		// can catch this one.
		{"one vertex and the total raised", func(c *Checkpoint) { c.Hits[busiest(c)]++; c.TotalHits++ }},
		{"adjacency checks", func(c *Checkpoint) { c.AdjChecked++ }},
		{"extra done shard", func(c *Checkpoint) { c.Done[len(c.Done)-1], c.DoneCount = true, c.DoneCount+1 }},
		{"lost done shard", func(c *Checkpoint) { c.Done[0], c.DoneCount = false, c.DoneCount-1 }},
		{"algorithm hash", func(c *Checkpoint) { c.algHash[0] ^= 1 }},
	} {
		c, err := decodeCheckpoint(orig)
		if err != nil {
			t.Fatal(err)
		}
		tc.tamper(c)
		if err := os.WriteFile(path, c.appendTo(nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err != nil {
			t.Fatalf("%s: tampered file no longer decodes, so the case tests nothing: %v", tc.name, err)
		}
		if _, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 16, Resume: true}); err == nil {
			t.Errorf("%s: tampered checkpoint resumed", tc.name)
		}
	}
	// Control: the same rewrite without a change resumes.
	c, err := decodeCheckpoint(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, c.appendTo(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.VerifyFullRoutingCheckpointed(2, CheckpointConfig{Path: path, ShardRows: 16, Resume: true}); err != nil {
		t.Fatalf("untampered rewrite refused: %v", err)
	}
}

// TestCheckpointRejectsEveryBitFlip: no single-bit corruption of a
// checkpoint decodes.
func TestCheckpointRejectsEveryBitFlip(t *testing.T) {
	good := checkpointImage(t, 2, 4, 0)
	if _, err := decodeCheckpoint(good); err != nil {
		t.Fatal(err)
	}
	flipped := make([]byte, len(good))
	for bit := 0; bit < 8*len(good); bit++ {
		copy(flipped, good)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeCheckpoint(flipped); !errors.Is(err, ErrCheckpointInvalid) {
			t.Fatalf("flip of bit %d of %d: got %v", bit, 8*len(good), err)
		}
	}
}

// TestDecodeCheckpointBoundedAlloc: a well-checksummed 200-byte file
// whose header declares sizes it cannot hold is rejected before the
// decoder allocates for them.
func TestDecodeCheckpointBoundedAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Checkpoint
	}{
		{"2^30 vertices", Checkpoint{Alg: "strassen", K: 2, NumVertices: 1 << 30, NumShards: 8}},
		{"2^40 shards", Checkpoint{Alg: "strassen", K: 2, NumShards: 1 << 40}},
	} {
		img := tc.c.appendTo(nil)
		body := make([]byte, 200-sha256.Size)
		copy(body, img[:len(img)-sha256.Size])
		data := withTrailer(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeCheckpoint(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCheckpointInvalid) {
			t.Fatalf("%s: got %v, want rejection", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
			t.Fatalf("%s: decoder allocated %d bytes before rejecting a %d-byte file", tc.name, grew, len(data))
		}
	}
}

// TestCheckpointSaveConstantAllocs: a steady-state save reuses its
// encode buffer, so its allocation count does not grow with the graph.
func TestCheckpointSaveConstantAllocs(t *testing.T) {
	allocs := func(k int) float64 {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := os.WriteFile(path, checkpointImage(t, k, 0, 0), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if err := c.save(path, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a3, a4 := allocs(3), allocs(4); a3 != a4 {
		t.Fatalf("save allocates %v times at k=3 but %v times at k=4", a3, a4)
	}
}

// FuzzLoadCheckpoint fuzzes the byte-level decoder. No input may
// panic, and an accepted input must re-encode to identical bytes. The
// checksum rejects nearly every mutation, so each input is also
// decoded with its trailer recomputed: that puts the fuzzer's bytes in
// front of the parser behind the checksum.
//
// The seeds are Strassen k=1 files (8 rows, a few hundred bytes), one
// complete and one paused per shard geometry: the fuzzer mutates and
// minimizes small inputs quickly, where multi-kilobyte k=3 seeds held
// it near 0 execs/s for seconds at a time.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, shardRows := range []int64{1, 2, 4} { // 8, 4 and 2 shards
		f.Add(checkpointImage(f, 1, shardRows, 0))
		f.Add(checkpointImage(f, 1, shardRows, 8/shardRows-1))
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-strassen-k2.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip := func(data []byte) {
			c, err := decodeCheckpoint(data)
			if err != nil {
				if !errors.Is(err, ErrCheckpointInvalid) {
					t.Fatalf("rejection does not wrap ErrCheckpointInvalid: %v", err)
				}
				return
			}
			if again := c.appendTo(nil); !bytes.Equal(again, data) {
				t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
			}
		}
		roundTrip(data)
		if len(data) >= sha256.Size {
			roundTrip(withTrailer(data[:len(data)-sha256.Size]))
		}
	})
}

// TestCheckpointAdjCheckedMatchesStride: the AdjChecked both scans
// record is the count checkTallies derives from the done rows, for
// strides that do and do not divide aᵏ and a ragged last shard, so a
// paused run at any of them resumes.
func TestCheckpointAdjCheckedMatchesStride(t *testing.T) {
	for _, kernel := range []struct {
		name   string
		orbits bool
	}{{name: "full"}, {name: "fan", orbits: true}} {
		for _, stride := range []int64{1, 5, 64, 257, 5000} {
			r := mustRouter(t, bilinear.Strassen(), 3) // 128 rows, aᵏ = 64
			r.OrbitReduction = kernel.orbits
			r.AdjacencySampleStride = stride
			path := filepath.Join(t.TempDir(), "run.ckpt")
			cfg := CheckpointConfig{Path: path, ShardRows: 24, MaxShards: 3} // 6 shards, the last of 8 rows
			if _, err := r.VerifyFullRoutingCheckpointed(2, cfg); !errors.Is(err, ErrPaused) {
				t.Fatalf("%s stride %d: expected ErrPaused, got %v", kernel.name, stride, err)
			}
			c, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.adjSamples(r.shardPlan(24), 64); c.AdjChecked != want {
				t.Errorf("%s stride %d: scan recorded %d adjacency checks, done rows sample %d", kernel.name, stride, c.AdjChecked, want)
			}
			cfg.MaxShards, cfg.Resume = 0, true
			st, err := r.VerifyFullRoutingCheckpointed(2, cfg)
			if err != nil {
				t.Fatalf("%s stride %d: resume: %v", kernel.name, stride, err)
			}
			if want := (128*64-1)/stride + 1; st.AdjacencyChecked != want {
				t.Errorf("%s stride %d: %d adjacency checks in all, want %d", kernel.name, stride, st.AdjacencyChecked, want)
			}
		}
	}
}
