package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkSpec is BENCHMARK.json, the file the benchmark's runs are
// judged by.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json names the
// workloads and metrics the benchmark runs and reports, with the same
// units, within the limits the file format sets.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec benchmarkSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the benchmark has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1-200 characters", w.Name)
		}
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		name(m.Name)
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end metric %d is %s in %s, the benchmark has %s in %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, better %q, bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound: %+v", m)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s end-to-end metric")
	}

	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		name(m.Name)
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per-layer metric %d is %s in %s, the benchmark has %s in %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if len(body) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(body))
	}
}
