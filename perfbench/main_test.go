package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s, program %s %s", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	if len(spec.EndToEnd) != len(endToEndUnits) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndUnits))
	}
	for _, e := range spec.EndToEnd {
		if u := endToEndUnits[e.Name]; u != e.Unit {
			t.Errorf("end-to-end %s %s: the program reports unit %q", e.Name, e.Unit, u)
		}
	}
}

func TestSelfTestCountsAPermutedPartition(t *testing.T) {
	if err := selfTest([]int{0, 0, 2, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if err := selfTest([]int{0, 0, 0}); err == nil {
		t.Fatal("a single-cluster reference cannot be permuted, want an error")
	}
}
