package core

// Allocation-discipline regression tests for the expansion hot path and the
// gpsi wire codec. Kimmig et al. (shared-memory subgraph enumeration) show
// allocation behavior dominates enumeration throughput; these tests pin the
// steady state at zero allocations per processed message so it cannot
// silently regress.

import (
	"testing"

	"psgl/internal/bsp"
	"psgl/internal/pattern"
)

func TestExpandSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation profiling in -short mode")
	}
	for _, strategy := range []Strategy{StrategyWorkloadAware, StrategyRandom, StrategyRoulette} {
		t.Run(strategy.String(), func(t *testing.T) {
			e, ctx, inbox, err := newHotpathHarness(pattern.PG2(), strategy)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: grow scratch frames, send-buffer capacity, and the
			// per-step load slots.
			for _, env := range inbox {
				e.Process(ctx, env)
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				ctx.ResetSends()
				e.Process(ctx, inbox[i%len(inbox)])
				i++
			})
			if avg != 0 {
				t.Errorf("expand allocates %.1f/op in steady state, want 0", avg)
			}
		})
	}
}

func TestExpandLocalExpansionSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation profiling in -short mode")
	}
	// LocalExpansion recurses through finalize → expand, exercising the
	// scratch-frame stack; it must stay allocation-free too.
	e, ctx, inbox, err := newHotpathHarness(pattern.PG2(), StrategyWorkloadAware)
	if err != nil {
		t.Fatal(err)
	}
	e.opts.LocalExpansion = true
	for _, env := range inbox {
		e.Process(ctx, env)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		ctx.ResetSends()
		e.Process(ctx, inbox[i%len(inbox)])
		i++
	})
	if avg != 0 {
		t.Errorf("inline expansion allocates %.1f/op in steady state, want 0", avg)
	}
}

func TestExpandHubBitsetSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation profiling in -short mode")
	}
	// Second-level diamond Gpsis have a WHITE vertex with two mapped
	// neighbors; with the hub threshold lowered to 16 the skewed harness
	// graph's hubs take the bitset AND path of candidate generation.
	e, ctx1, inbox, err := newHotpathHarnessOpts(pattern.Diamond(), func(o *Options) {
		o.BitmapMinDegree = 16
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range inbox {
		e.Process(ctx1, env)
	}
	inbox2 := append([]bsp.Envelope[gpsi](nil), ctx1.Sends(0)...)
	if len(inbox2) == 0 {
		t.Fatal("no second-level messages for worker 0")
	}
	ctx := bsp.NewBenchContext[gpsi](e.benchConfig(), 0, 2)
	for _, env := range inbox2 {
		e.Process(ctx, env)
	}
	if ctx.Counter(ctrBitsetAnd) == 0 {
		t.Fatal("warm-up never took the bitset AND path")
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		ctx.ResetSends()
		e.Process(ctx, inbox2[i%len(inbox2)])
		i++
	})
	if avg != 0 {
		t.Errorf("hub expansion allocates %.1f/op in steady state, want 0", avg)
	}
}

func TestGpsiWireRoundTripZeroAllocs(t *testing.T) {
	m := gpsi{N: 5, Next: 3, Expanded: 0b10011, Pending: 0xbeef}
	for i := range m.Map {
		m.Map[i] = unmapped
	}
	m.Map[0], m.Map[1], m.Map[3] = 42, 7, 1<<30
	buf := make([]byte, 0, 64)
	var out gpsi
	avg := testing.AllocsPerRun(500, func() {
		buf = m.AppendWire(buf[:0])
		rest, err := out.DecodeWire(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("round trip: rest=%d err=%v", len(rest), err)
		}
	})
	if avg != 0 {
		t.Errorf("gpsi codec allocates %.1f/op, want 0", avg)
	}
	if out != m {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", out, m)
	}
}
