package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/centralized"
	"psgl/internal/gen"
	"psgl/internal/obs"
	"psgl/internal/pattern"
)

// TestAsyncDifferentialMatchesStrict pins the tentpole's core promise: the
// pipelined async exchange produces the exact same embedding multiset — not
// just the same count — as strict barriered BSP, across skewed Chung–Lu
// graphs, three patterns, all three distribution strategies, and both
// transports. Strict mode is the oracle.
func TestAsyncDifferentialMatchesStrict(t *testing.T) {
	patterns := []*pattern.Pattern{pattern.PG1(), pattern.PG3(), pattern.PG5()}
	strategies := []Strategy{StrategyRandom, StrategyRoulette, StrategyWorkloadAware}
	exchanges := []struct {
		name    string
		factory bsp.ExchangeFactory
		workers int
	}{
		{"local", nil, 4},
		{"tcp", bsp.NewTCPExchangeFactory(), 3},
	}

	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g := gen.ChungLu(70, 300, 2.3, seed)
		for _, p := range patterns {
			for _, strat := range strategies {
				for _, ex := range exchanges {
					if testing.Short() && ex.name == "tcp" && strat != StrategyWorkloadAware {
						continue
					}
					name := fmt.Sprintf("seed%d/%s/%s/%s", seed, p.Name(), strat, ex.name)
					t.Run(name, func(t *testing.T) {
						base := Options{
							Workers:  ex.workers,
							Strategy: strat,
							Seed:     seed,
							Collect:  true,
						}
						strictRes, err := Run(g, p, base)
						if err != nil {
							t.Fatal(err)
						}
						asyncOpts := base
						asyncOpts.Exchange = ex.factory
						asyncOpts.AsyncExchange = true
						asyncRes, err := Run(g, p, asyncOpts)
						if err != nil {
							t.Fatal(err)
						}
						if strictRes.Count != asyncRes.Count {
							t.Fatalf("counts diverge: strict=%d async=%d",
								strictRes.Count, asyncRes.Count)
						}
						want := make([]string, 0, len(strictRes.Instances))
						for _, inst := range strictRes.Instances {
							want = append(want, embeddingKey(inst))
						}
						got := make([]string, 0, len(asyncRes.Instances))
						for _, inst := range asyncRes.Instances {
							got = append(got, embeddingKey(inst))
						}
						sort.Strings(want)
						sort.Strings(got)
						if len(got) != len(want) {
							t.Fatalf("%d async embeddings, strict has %d", len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("embedding multiset diverges at #%d: async %q, strict %q",
									i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestAsyncRecoveryCountsExact: an async run whose frames are killed by a
// schedule, recovered via quiescence checkpoints, must still report the
// strict run's exact count — the exactly-once guarantee carries over from
// barriers to quiescence points.
func TestAsyncRecoveryCountsExact(t *testing.T) {
	g := gen.ChungLu(70, 300, 2.3, 7)
	p := pattern.PG3()
	strictRes, err := Run(g, p, Options{Workers: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	factory := bsp.NewScheduledFaultExchangeFactory(nil, []bsp.StepFault{
		{Step: 2, Kind: bsp.StepFaultKill, Worker: 1},
		{Step: 2, Kind: bsp.StepFaultKill, Worker: 1},
		{Step: 3, Kind: bsp.StepFaultDrop},
		{Step: 3, Kind: bsp.StepFaultDrop},
	})
	asyncRes, err := Run(g, p, Options{
		Workers:         3,
		Seed:            7,
		Exchange:        factory,
		AsyncExchange:   true,
		Retry:           bsp.RetryPolicy{MaxAttempts: 2, BaseBackoff: 100e3, MaxBackoff: 2e6},
		CheckpointEvery: 1,
		CheckpointStore: bsp.NewMemCheckpointStore(),
		MaxRecoveries:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strictRes.Count != asyncRes.Count {
		t.Fatalf("recovered async count %d != strict %d (recoveries=%d)",
			asyncRes.Count, strictRes.Count, asyncRes.Stats.Recoveries)
	}
}

// TestAsyncProbabilisticFaultsRecoverExact runs the async plane over the
// probabilistic fault injector, which draws an error, a drop or a delay per
// wire frame from one seeded stream shared by all senders, with quiescence
// checkpoints and in-run recovery. Whichever frames the stream hits, the
// recovered run must report the centralized oracle's count, and the results
// counter — tallied per worker and folded at every burst end, then rolled
// back with each restored snapshot — must agree in Stats and in the
// observer's mirror.
func TestAsyncProbabilisticFaultsRecoverExact(t *testing.T) {
	g := gen.ChungLu(300, 1200, 2.0, 5)
	p := pattern.PG3()
	want := centralized.CountInstances(p, g)
	factory := bsp.NewFaultyExchangeFactory(nil, bsp.FaultConfig{
		Seed:      4,
		ErrorRate: 0.3,
		DropRate:  0.2,
		DelayRate: 0.2,
		MaxDelay:  time.Millisecond,
		MaxFaults: 3,
	})
	o := obs.New(obs.NewRing(64))
	res, err := Run(g, p, Options{
		Workers:         3,
		Seed:            7,
		Exchange:        factory,
		AsyncExchange:   true,
		CheckpointEvery: 1,
		CheckpointStore: bsp.NewMemCheckpointStore(),
		MaxRecoveries:   3,
		Observer:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries == 0 {
		t.Fatal("no recovery ran: the fault stream injected no error or drop")
	}
	if res.Count != want {
		t.Errorf("count %d after %d recoveries, oracle %d", res.Count, res.Stats.Recoveries, want)
	}
	if res.Stats.Results != want {
		t.Errorf("results counter %d, oracle %d", res.Stats.Results, want)
	}
	if got := o.Counters()["results"]; got != want {
		t.Errorf("observer results counter %d, oracle %d", got, want)
	}
}
