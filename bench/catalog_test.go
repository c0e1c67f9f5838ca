package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesCatalogue keeps the repository's BENCHMARK.json
// and the catalogue the program reports from in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(repoPath("BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n%+v\nprogram\n%+v", spec.EndToEnd, endToEnd)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, program has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if p := perLayer[i]; m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, m, p)
		}
	}
	setup, _ := find(endToEnd, "setup_s")
	for _, m := range endToEnd {
		if m.Bound < 0 || m.Bound > setup.Bound || setup.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, setup_s's %v], or that above 0.25", m.Name, m.Bound, setup.Bound)
		}
	}
}

// TestEveryWorkloadReportsEveryMetric checks the per-layer set is complete
// and setLayers knows every name, using a synthetic profile.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	rep := newReport("x", 1, 1, 1)
	setLayers(rep, profile(nil), &passStats{}, 0, runtimeDelta{}, 0)
	rep.set("trace.overhead_pct", 0)
	for _, m := range perLayer {
		if _, ok := rep.Layers[m.Name]; !ok {
			t.Errorf("per-layer metric %s not reported", m.Name)
		}
	}
	if len(rep.Layers) != len(perLayer) {
		t.Errorf("%d per-layer values for %d catalogue entries", len(rep.Layers), len(perLayer))
	}
}
