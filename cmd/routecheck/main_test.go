package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pathrouting/internal/bilinear"
	"pathrouting/internal/cdag"
	"pathrouting/internal/routing"
)

// TestHistogramGolden pins routecheck's per-rank hit table for Strassen
// G_3. The golden was produced by counting every vertex over a full
// ForEachPairPath enumeration; the table built from the verified
// scan's hit vector (orbits on and off) and from a completed
// checkpoint's vector must reproduce it byte for byte.
func TestHistogramGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "strassen-k3-hist.golden"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := cdag.New(bilinear.Strassen(), 3)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, hits []int64) {
		t.Helper()
		var buf bytes.Buffer
		printHist(&buf, histogram(g, hits))
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s:\ngot\n%s\nwant\n%s", name, buf.Bytes(), want)
		}
	}
	for _, orbits := range []bool{false, true} {
		r, err := routing.NewRouter(g)
		if err != nil {
			t.Fatal(err)
		}
		r.OrbitReduction = orbits
		_, hits, err := r.VerifyFullRoutingHits(2)
		if err != nil {
			t.Fatalf("orbits=%v: %v", orbits, err)
		}
		check(fmt.Sprintf("orbits=%v", orbits), hits)
	}

	r, err := routing.NewRouter(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "k3.ckpt")
	if _, err := r.VerifyFullRoutingCheckpointed(2, routing.CheckpointConfig{Path: path, ShardRows: 16}); err != nil {
		t.Fatal(err)
	}
	cp, err := routing.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	check("checkpoint", cp.Hits)
}
