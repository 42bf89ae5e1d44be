package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkFile checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		list string
		got  []metric
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var got, want []metricDef
		for _, m := range c.got {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		want = append(want, c.want...)
		if !slices.Equal(got, want) {
			t.Errorf("BENCHMARK.json %s\n%v\nprogram reports\n%v", c.list, got, want)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	d := make([]int64, 100)
	for i := range d {
		d[i] = int64(100 - i)
	}
	if p := percentile(d, 0.99); p != 99 {
		t.Errorf("p99 = %v", p)
	}
	if p := percentile(d, 0.5); p != 50 {
		t.Errorf("p50 = %v", p)
	}
}
