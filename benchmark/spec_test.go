package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesUnitsAndLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64} starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	known := map[string]bool{}
	for _, w := range workloads {
		name(w.Name)
		known[w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.SetupReps < 1 {
			t.Errorf("%s: no set-up repetitions", w.Name)
		}
		if newWorkload(w.Name) == nil {
			t.Errorf("%s: declared but not implemented", w.Name)
		}
	}
	hasSetup := false
	for _, s := range endToEnd {
		name(s.Name)
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		if s.Name == "setup_s" {
			hasSetup = s.Unit == "s" && s.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	layers := map[string]bool{"serve": true, "core": true, "rdd": true, "kernels": true, "matrix": true, "store": true, "model": true, "obs": true, "go": true}
	for _, s := range perLayer {
		name(s.Name)
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
		if !layers[layerOf(s.Name)] {
			t.Errorf("%s: %q is not one of the repository's layers", s.Name, layerOf(s.Name))
		}
		if len(s.On) == 0 {
			t.Errorf("%s: no workload measures it", s.Name)
		}
		for _, w := range s.On {
			if !known[w] {
				t.Errorf("%s: measured on unknown workload %q", s.Name, w)
			}
		}
	}
}

// benchmarkJSON renders what BENCHMARK.json must hold for these
// declarations.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestBenchmarkJSONMatchesDeclarations keeps the root BENCHMARK.json in
// step with spec.go. To regenerate it after a change to the declarations:
//
//	UPDATE_BENCHMARK_JSON=1 go test -run BenchmarkJSON .
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := benchmarkJSON()
	if len(want) > 64<<10 {
		t.Fatalf("BENCHMARK.json would be %d bytes, over 64 KiB", len(want))
	}
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s does not match the declarations in spec.go; regenerate it with UPDATE_BENCHMARK_JSON=1", path)
	}
}
