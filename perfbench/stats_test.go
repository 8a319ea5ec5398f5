package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		q        float64
		enough   int // fewest samples that report the percentile
		atEnough float64
	}{
		{0.5, 20, 10},
		{0.9, 100, 90},
		{0.95, 200, 190},
	} {
		if v, ok := percentile(seq(c.enough-1), c.q); ok {
			t.Errorf("p%g of %d samples = %g, want unreported", c.q*100, c.enough-1, v)
		}
		v, ok := percentile(seq(c.enough), c.q)
		if !ok || v != c.atEnough {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.q*100, c.enough, v, ok, c.atEnough)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is reported")
	}
}

func TestFailuresCountAsInfinitelySlow(t *testing.T) {
	// 20 reads, the 10 slowest failed: the median is still the 10th
	// fastest success. One more failure and the median is a failure.
	xs := seq(20)
	for i := 0; i < 10; i++ {
		xs[i] = failed
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 10 {
		t.Fatalf("p50 with 10 of 20 failed = %g, %v; want 10", v, ok)
	}
	xs[10] = failed
	v, _ := percentile(xs, 0.5)
	if !math.IsInf(v, 1) {
		t.Fatalf("p50 with 11 of 20 failed = %g, want +Inf", v)
	}
	// An infinite latency prints as the largest float64, which JSON carries.
	o := newOutcome()
	o.Attempted = 1
	for _, d := range endToEnd {
		o.Values[d.Name] = 1
	}
	o.Values["query_ms"] = v
	rep, err := o.build(false)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Metrics["query_ms"].Value; got != math.MaxFloat64 {
		t.Fatalf("printed %g, want MaxFloat64", got)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRequiresEveryEndToEndMetric(t *testing.T) {
	o := newOutcome()
	o.Attempted = 1
	for _, d := range endToEnd[1:] {
		o.Values[d.Name] = 1
	}
	if _, err := o.build(false); err == nil {
		t.Fatalf("report without %s built", endToEnd[0].Name)
	}
	// Per-layer metrics of a layer the workload does not run report 0.
	rep, err := o.build(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != len(perLayer) || !rep.Correct {
		t.Fatalf("traced report has %d metrics (want %d), correct %v", len(rep.Metrics), len(perLayer), rep.Correct)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %g", m)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the tables the benchmark prints
// from and BENCHMARK.json, which the benchmark is judged by, in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, the benchmark %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", w.Name)
		}
	}
}
