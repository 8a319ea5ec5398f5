package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract and must match BENCHMARK.json at the root of
// the repository (stats_test.go checks that they do).
type metricDef struct{ Name, Unit string }

// endToEnd lists what a user of the program sees. Every workload reports
// every one of them, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"embeddings_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"query_ms", "ms"},
	{"sat_qps", "1/s"},
}

// perLayer lists the metrics of single layers, measured in the traced run.
// A layer a workload does not run reports 0.
var perLayer = []metricDef{
	{"graph.gen_s", "s"},
	{"graph.bitmap_build_ms", "ms"},
	{"bloom.build_ms", "ms"},
	{"bloom.queries", "count"},
	{"bloom.prune_ratio", "ratio"},
	{"bloom.false_pass", "count"},
	{"pattern.plan_us", "us"},
	{"core.gpsi_generated", "count"},
	{"core.results_per_gpsi", "ratio"},
	{"core.compute_s", "s"},
	{"core.ns_per_gpsi", "ns"},
	{"core.makespan_s", "s"},
	{"core.skew", "ratio"},
	{"core.pruned.degree", "count"},
	{"core.pruned.order", "count"},
	{"core.pruned.index", "count"},
	{"core.pruned.injective", "count"},
	{"core.pruned.verify", "count"},
	{"core.bitset_and", "count"},
	{"core.alloc_bytes_per_gpsi", "B"},
	{"bsp.supersteps", "count"},
	{"bsp.exchange_s", "s"},
	{"bsp.barrier_wait_s", "s"},
	{"bsp.wire_bytes", "B"},
	{"bsp.bytes_per_gpsi", "B"},
	{"bsp.frames", "count"},
	{"bsp.credit_rounds", "count"},
	{"bsp.frames_in_flight_peak", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"serve.count_p50_ms", "ms"},
	{"serve.stream_p50_ms", "ms"},
	{"serve.census_p50_ms", "ms"},
	{"serve.engine_p50_ms", "ms"},
	{"serve.overhead_p50_ms", "ms"},
	{"serve.query_p50_ms", "ms"},
	{"serve.query_p95_ms", "ms"},
	{"serve.update_p50_ms", "ms"},
	{"serve.update_p90_ms", "ms"},
	{"serve.update_apply_p50_ms", "ms"},
	{"serve.plan_hit_ratio", "ratio"},
	{"serve.census_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"esu.subgraphs_per_s", "1/s"},
	{"loadgen.lag_p95_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload run measured: operation counts and raw metric
// values keyed by name.
type outcome struct {
	Attempted, Failed int64
	Checked           bool // every output check ran and passed
	Values            map[string]float64
}

// newOutcome returns an outcome whose checks pass until one fails.
func newOutcome() *outcome { return &outcome{Checked: true, Values: map[string]float64{}} }

// fail counts one failed operation and says why on stderr.
func (o *outcome) fail(log func(string, ...any), format string, a ...any) {
	o.Failed++
	o.Checked = false
	log("FAIL: "+format, a...)
}

// build turns the outcome into the printed report: the end-to-end table
// untraced, the per-layer table traced. An end-to-end metric the workload
// did not measure is an error, never a silent 0. A failed operation's
// infinite latency prints as the largest float64, which JSON can carry.
func (o *outcome) build(traced bool) (report, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := report{
		Correct:   o.Checked && o.Failed == 0 && o.Attempted > 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.Values[d.Name]
		if !ok && !traced {
			return r, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		switch {
		case math.IsNaN(v):
			return r, fmt.Errorf("metric %s is NaN", d.Name)
		case math.IsInf(v, 1):
			v = math.MaxFloat64
		case math.IsInf(v, -1):
			v = -math.MaxFloat64
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}
