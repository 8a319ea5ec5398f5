package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"psgl"
	"psgl/internal/bloom"
	"psgl/internal/core"
	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/obs"
	"psgl/internal/pattern"
	"psgl/internal/stats"
)

// workers is the engine worker count of every workload: one per core of
// the 2-core machine the benchmark was sized on.
const workers = 2

// setupReps is how many times a run builds its inputs; setup_s is the
// median.
const setupReps = 5

// listJob is one psgl.ListContext call: a pattern over a generated graph.
type listJob struct {
	Pattern string // pattern DSL
	Spec    string // generator spec, "chunglu:N:M:GAMMA"
}

// listWorkload is a batch workload: its jobs run back to back, in passes,
// until the timed phase is spent.
type listWorkload struct {
	Name  string
	Async bool // AsyncExchange over the loopback TCP exchange
	Jobs  []listJob
}

var (
	// listSkew is the paper's default runtime (strict BSP, in-process
	// exchange, WA strategy) on heavy skew.
	listSkew = listWorkload{Name: "list-skew", Jobs: []listJob{
		{"diamond", "chunglu:20000:80000:1.8"},
		{"house", "chunglu:3000:12000:1.8"},
	}}
	// listTCP is the async runtime over loopback TCP on milder skew.
	listTCP = listWorkload{Name: "list-tcp", Async: true, Jobs: []listJob{
		{"square", "chunglu:50000:250000:2.5"},
		{"diamond", "chunglu:50000:250000:2.5"},
	}}
)

// chungLu parses a "chunglu:N:M:GAMMA" spec.
func chungLu(spec string) (n int, m int64, gamma float64, err error) {
	f := strings.Split(spec, ":")
	if len(f) != 4 || f[0] != "chunglu" {
		return 0, 0, 0, fmt.Errorf("bad generator spec %q", spec)
	}
	if n, err = strconv.Atoi(f[1]); err == nil {
		if m, err = strconv.ParseInt(f[2], 10, 64); err == nil {
			gamma, err = strconv.ParseFloat(f[3], 64)
		}
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad generator spec %q: %v", spec, err)
	}
	return n, m, gamma, nil
}

// generate builds the graph of spec inside a graph-layer span.
func generate(spec string, seed int64, tr *tracer, trace string) (*graph.Graph, error) {
	n, m, gamma, err := chungLu(spec)
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	tr.timed(trace, "graph", "gen.ChungLu", 0, func(int) { g = gen.ChungLu(n, m, gamma, seed) })
	return g, nil
}

// setupGraphs generates every distinct graph of specs setupReps times and
// returns the last graphs with the median time one full set took.
func setupGraphs(specs []string, seed int64, tr *tracer) (map[string]*graph.Graph, float64, error) {
	graphs := map[string]*graph.Graph{}
	var times []float64
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		for _, spec := range specs {
			g, err := generate(spec, seed, tr, "setup")
			if err != nil {
				return nil, 0, err
			}
			graphs[spec] = g
		}
		times = append(times, time.Since(start).Seconds())
	}
	return graphs, median(times), nil
}

// cpuTime is the user plus system CPU this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// callSpec is one job call as the benchmark hands it to an engine process.
type callSpec struct {
	Pattern string
	Spec    string
	Seed    int64
	Async   bool
	Traced  bool
}

// callRec is one ListContext call as measured. The traced fields are set
// only on traced calls.
type callRec struct {
	Err        string
	Count      int64
	Stats      core.Stats
	Start, End time.Time     // the call
	CPU        time.Duration // user + system CPU of the call
	// Calls made in an engine process only.
	GenStart, GenEnd time.Time // the process's graph generation
	PeakRSSMB        float64   // the process's peak resident set
	// Traced calls only.
	Snap       obs.Snapshot
	Steps      []obs.StepMetrics
	GCCPU      float64 // s
	AllocBytes float64
	HeapPeakMB float64
}

func (r *callRec) wall() time.Duration { return r.End.Sub(r.Start) }

func runList(ctx context.Context, cfg config, tr *tracer, wl listWorkload) (*outcome, error) {
	out := newOutcome()
	var specs []string
	for _, j := range wl.Jobs {
		if !slices.Contains(specs, j.Spec) {
			specs = append(specs, j.Spec)
		}
	}
	graphs, setup, err := setupGraphs(specs, cfg.Seed, tr)
	if err != nil {
		return nil, err
	}
	out.Values["setup_s"] = setup
	out.Values["graph.gen_s"] = setup
	pats := make([]*pattern.Pattern, len(wl.Jobs))
	var ojobs []oracleJob
	for i, j := range wl.Jobs {
		if pats[i], err = pattern.Parse(j.Pattern); err != nil {
			return nil, err
		}
		ojobs = append(ojobs, oracleJob{Key: oracleKey(j.Pattern, j.Spec, cfg.Seed), Pattern: pats[i], Graph: graphs[j.Spec]})
	}
	want, err := oracleCounts(ojobs, cfg.Out, tr)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		measureIndexes(wl, graphs, pats, tr, out)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}

	plain := make([][]callRec, len(wl.Jobs))  // untraced calls per job
	traced := make([][]callRec, len(wl.Jobs)) // traced calls per job
	start := time.Now()
	passes := 0
	for ctx.Err() == nil {
		passStart := time.Now()
		tracedPass := tr != nil && passes%2 == 1
		for i, j := range wl.Jobs {
			cs := callSpec{Pattern: j.Pattern, Spec: j.Spec, Seed: cfg.Seed, Async: wl.Async, Traced: tracedPass}
			t0 := time.Now()
			rec, err := spawnCall(ctx, exe, cs)
			out.Attempted++
			switch {
			case err != nil:
				out.fail(cfg.Log, "%s on %s: %v", j.Pattern, j.Spec, err)
				continue
			case rec.Count != want[ojobs[i].Key]:
				out.fail(cfg.Log, "%s on %s seed %d: counted %d, oracle %d", j.Pattern, j.Spec, cfg.Seed, rec.Count, want[ojobs[i].Key])
				continue
			}
			cfg.Log("%s: %.3fs, %.3fs CPU, %.0f MB", j.Pattern, rec.wall().Seconds(), rec.CPU.Seconds(), rec.PeakRSSMB)
			if tracedPass {
				trace := fmt.Sprintf("%s #%d", j.Pattern, passes)
				proc := tr.add(trace, "harness", "engine process", 0, t0, time.Now())
				tr.add(trace, "graph", "gen.ChungLu", proc, rec.GenStart, rec.GenEnd)
				callSpans(tr, trace, proc, &rec)
				traced[i] = append(traced[i], rec)
			} else {
				plain[i] = append(plain[i], rec)
			}
		}
		passes++
		// Stop when another pass would overrun the timed phase; a traced run
		// needs at least one untraced and one traced pass.
		if time.Since(start)+time.Since(passStart) > cfg.Seconds && (tr == nil || passes >= 2) {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.Log("%s seed %d: %d passes in %.1fs", wl.Name, cfg.Seed, passes, time.Since(start).Seconds())

	// Each job's calls are summarized by their medians; the workload's
	// metrics combine the jobs' medians.
	var emb, cpu, rss float64
	for i, recs := range plain {
		if len(recs) == 0 {
			continue
		}
		emb += float64(want[ojobs[i].Key])
		cpu += medianOf(recs, func(r *callRec) float64 { return r.CPU.Seconds() })
		rss += medianOf(recs, func(r *callRec) float64 { return r.PeakRSSMB })
	}
	wall := sumMedianWall(plain)
	out.Values["embeddings_per_s"] = ratio(emb, wall)
	out.Values["sat_qps"] = ratio(float64(len(wl.Jobs)), wall)
	out.Values["query_ms"] = wall * 1000 / float64(len(wl.Jobs))
	out.Values["cpu_s"] = cpu
	out.Values["peak_rss_mb"] = rss / float64(len(wl.Jobs))
	out.Values["ok_frac"] = ratio(float64(out.Attempted-out.Failed), float64(out.Attempted))
	if tr != nil {
		listLayers(traced, out)
		out.Values["trace.overhead_frac"] = ratio(sumMedianWall(traced), wall) - 1
	}
	return out, nil
}

// spawnCall runs one job call in a fresh engine process (this binary with
// -engine), so that each call's CPU time and peak resident set are its own
// and no call inherits another's heap.
func spawnCall(ctx context.Context, exe string, cs callSpec) (callRec, error) {
	var rec callRec
	arg, err := json.Marshal(cs)
	if err != nil {
		return rec, err
	}
	cmd := exec.CommandContext(ctx, exe, "-engine", string(arg))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return rec, fmt.Errorf("engine process: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		return rec, fmt.Errorf("engine process output: %w", err)
	}
	if rec.Err != "" {
		return rec, errors.New(rec.Err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rec.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rec, nil
}

// runEngine is the engine process: it generates the job's graph, makes the
// call and writes its callRec as JSON to w.
func runEngine(ctx context.Context, arg string, w io.Writer) error {
	var cs callSpec
	if err := json.Unmarshal([]byte(arg), &cs); err != nil {
		return fmt.Errorf("bad -engine argument: %w", err)
	}
	genStart := time.Now()
	g, err := generate(cs.Spec, cs.Seed, nil, "")
	if err != nil {
		return err
	}
	genEnd := time.Now()
	p, err := pattern.Parse(cs.Pattern)
	if err != nil {
		return err
	}
	opts := psgl.NewOptions()
	opts.Workers = workers
	opts.Seed = cs.Seed
	if cs.Async {
		opts.AsyncExchange = true
		opts.Exchange = psgl.NewTCPExchange()
	}
	rec, err := runCall(ctx, g, p, opts, cs.Traced)
	if err != nil {
		rec.Err = err.Error()
	}
	rec.GenStart, rec.GenEnd = genStart, genEnd
	return json.NewEncoder(w).Encode(rec)
}

// runCall makes one ListContext call. A traced call runs under an
// obs.Observer and samples the Go heap while it runs.
func runCall(ctx context.Context, g *graph.Graph, p *pattern.Pattern, opts psgl.Options, traced bool) (callRec, error) {
	var rec callRec
	var observer *obs.Observer
	var before runtimeReading
	var stopSampler func() float64
	if traced {
		observer = obs.New(nil)
		opts.Observer = observer
		before = readRuntime()
		stopSampler = sampleHeap()
	}
	cpu0 := cpuTime()
	rec.Start = time.Now()
	res, err := psgl.ListContext(ctx, g, p, opts)
	rec.End = time.Now()
	rec.CPU = cpuTime() - cpu0
	if traced {
		rec.HeapPeakMB = stopSampler()
		after := readRuntime()
		rec.GCCPU = after.gcCPU - before.gcCPU
		rec.AllocBytes = after.allocBytes - before.allocBytes
	}
	if err != nil {
		return rec, err
	}
	rec.Count, rec.Stats = res.Count, res.Stats
	if traced {
		rec.Snap = observer.Snapshot()
		rec.Steps = observer.Steps()
	}
	return rec, nil
}

// callSpans records a traced call's span and, as its children, the
// observer's per-step compute and exchange times. Steps() carries
// durations, not start times, so the steps are laid end to end from the
// start of the call.
func callSpans(tr *tracer, trace string, parent int, rec *callRec) {
	id := tr.add(trace, "psgl", "psgl.ListContext", parent, rec.Start, rec.End)
	at := rec.Start
	for _, st := range rec.Steps {
		tr.add(trace, "core", "core.compute", id, at, at.Add(st.Compute))
		at = at.Add(st.Compute)
		tr.add(trace, "bsp", "bsp.exchange", id, at, at.Add(st.Exchange))
		at = at.Add(st.Exchange)
	}
}

// medianOf is the median of f over recs.
func medianOf(recs []callRec, f func(*callRec) float64) float64 {
	xs := make([]float64, len(recs))
	for i := range recs {
		xs[i] = f(&recs[i])
	}
	return median(xs)
}

// sumMedianWall is the sum over jobs of each job's median call wall time,
// in seconds.
func sumMedianWall(calls [][]callRec) float64 {
	var s float64
	for _, recs := range calls {
		s += medianOf(recs, func(r *callRec) float64 { return r.wall().Seconds() })
	}
	return s
}

// runtimeReading is a sample of the Go runtime's cumulative counters.
type runtimeReading struct{ gcCPU, allocBytes float64 }

func readRuntime() runtimeReading {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var r runtimeReading
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(s[1].Value.Uint64())
	}
	return r
}

// sampleHeap samples the live heap every 5ms until the returned function is
// called, which returns the peak in MiB.
func sampleHeap() (stop func() float64) {
	const name = "/memory/classes/heap/objects:bytes"
	done := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: name}}
		var most uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > most {
				most = s[0].Value.Uint64()
			}
			select {
			case <-tick.C:
			case <-done:
				peak <- most
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak) / (1 << 20)
	}
}

// measureIndexes times the per-run index builds and plans of every job, the
// work psgl.ListContext repeats on each call, by calling the same exported
// functions: graph.bitmap_build_ms, bloom.build_ms and pattern.plan_us.
func measureIndexes(wl listWorkload, graphs map[string]*graph.Graph, pats []*pattern.Pattern, tr *tracer, out *outcome) {
	for i, j := range wl.Jobs {
		bm, bl, pl := indexTimes(graphs[j.Spec], []*pattern.Pattern{pats[i]}, tr, "plan "+j.Pattern)
		out.Values["graph.bitmap_build_ms"] += bm
		out.Values["bloom.build_ms"] += bl
		out.Values["pattern.plan_us"] += pl
	}
}

// indexTimes returns the median times, over 3 builds, of the bitmap index
// and the bloom edge index of g (ms), and of planning every pattern against
// g's degree distribution (µs).
func indexTimes(g *graph.Graph, pats []*pattern.Pattern, tr *tracer, trace string) (bitmapMS, bloomMS, planUS float64) {
	const reps = 3
	var bm, bl, pl []float64
	dist := stats.FromHistogram(g.DegreeHistogram())
	for r := 0; r < reps; r++ {
		t := time.Now()
		tr.timed(trace, "graph", "graph.NewBitmapIndex", 0, func(int) { graph.NewBitmapIndex(g, 0) })
		bm = append(bm, ms(time.Since(t)))
		t = time.Now()
		tr.timed(trace, "bloom", "bloom.BuildEdgeIndex", 0, func(int) { bloom.BuildEdgeIndex(g, 10) })
		bl = append(bl, ms(time.Since(t)))
		t = time.Now()
		for _, p := range pats {
			var broken *pattern.Pattern
			tr.timed(trace, "pattern", "pattern.BreakAutomorphisms", 0, func(int) { broken = p.BreakAutomorphisms() })
			tr.timed(trace, "core", "core.SelectInitialVertex", 0, func(int) { core.SelectInitialVertex(broken, dist) })
		}
		pl = append(pl, float64(time.Since(t))/float64(time.Microsecond))
	}
	return median(bm), median(bl), median(pl)
}

// listLayers fills the engine-side per-layer metrics from traced calls:
// each is the sum over jobs of that job's median over its calls, and the
// ratios are taken between those sums.
func listLayers(traced [][]callRec, out *outcome) {
	sum := func(f func(*callRec) float64) float64 {
		var s float64
		for _, recs := range traced {
			s += medianOf(recs, f)
		}
		return s
	}
	v := out.Values
	gpsi := sum(func(r *callRec) float64 { return float64(r.Stats.GpsiGenerated) })
	results := sum(func(r *callRec) float64 { return float64(r.Stats.Results) })
	queries := sum(func(r *callRec) float64 { return float64(r.Stats.EdgeIndexQueries) })
	compute := sum(func(r *callRec) float64 {
		var t time.Duration
		for _, w := range r.Stats.WorkerTime {
			t += w
		}
		return t.Seconds()
	})
	makespan := sum(func(r *callRec) float64 { return r.Stats.SimulatedMakespan.Seconds() })
	wire := sum(func(r *callRec) float64 { return float64(r.Snap.BytesSent) })
	alloc := sum(func(r *callRec) float64 { return r.AllocBytes })

	v["bloom.queries"] = queries
	v["bloom.prune_ratio"] = ratio(sum(func(r *callRec) float64 { return float64(r.Stats.PrunedByIndex) }), queries)
	v["bloom.false_pass"] = sum(func(r *callRec) float64 { return float64(r.Stats.PrunedByVerify) })
	v["core.gpsi_generated"] = gpsi
	v["core.results_per_gpsi"] = ratio(results, gpsi)
	v["core.compute_s"] = compute
	v["core.ns_per_gpsi"] = ratio(compute*1e9, gpsi)
	v["core.makespan_s"] = makespan
	v["core.skew"] = ratio(makespan, compute/workers)
	v["core.pruned.degree"] = sum(func(r *callRec) float64 { return float64(r.Stats.PrunedByDegree) })
	v["core.pruned.order"] = sum(func(r *callRec) float64 { return float64(r.Stats.PrunedByOrder) })
	v["core.pruned.index"] = sum(func(r *callRec) float64 { return float64(r.Stats.PrunedByIndex) })
	v["core.pruned.injective"] = sum(func(r *callRec) float64 { return float64(r.Stats.PrunedByInjectivity) })
	v["core.pruned.verify"] = sum(func(r *callRec) float64 { return float64(r.Stats.PrunedByVerify) })
	v["core.bitset_and"] = sum(func(r *callRec) float64 { return float64(r.Stats.BitsetAndCandidates) })
	v["core.alloc_bytes_per_gpsi"] = ratio(alloc, gpsi)
	v["bsp.supersteps"] = sum(func(r *callRec) float64 { return float64(r.Stats.Supersteps) })
	v["bsp.exchange_s"] = sum(func(r *callRec) float64 {
		var t time.Duration
		for _, st := range r.Steps {
			t += st.Exchange
		}
		return t.Seconds()
	})
	v["bsp.barrier_wait_s"] = sum(func(r *callRec) float64 {
		var t time.Duration
		for _, st := range r.Steps {
			for _, w := range st.WorkerCompute {
				t += st.Compute - w
			}
		}
		return t.Seconds()
	})
	v["bsp.wire_bytes"] = wire
	v["bsp.bytes_per_gpsi"] = ratio(wire, gpsi)
	v["bsp.frames"] = sum(func(r *callRec) float64 { return float64(r.Snap.WireFramesSent + r.Snap.GobFramesSent) })
	v["bsp.credit_rounds"] = sum(func(r *callRec) float64 { return float64(r.Snap.CreditRounds) })
	v["runtime.gc_cpu_s"] = sum(func(r *callRec) float64 { return r.GCCPU })
	for _, recs := range traced {
		for _, r := range recs {
			v["bsp.frames_in_flight_peak"] = max(v["bsp.frames_in_flight_peak"], float64(r.Snap.FramesInFlightPeak))
			v["runtime.heap_peak_mb"] = max(v["runtime.heap_peak_mb"], r.HeapPeakMB)
		}
	}
}
