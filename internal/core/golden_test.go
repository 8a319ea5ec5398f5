package core

import (
	"testing"

	"psgl/internal/gen"
	"psgl/internal/pattern"
)

// goldenCounters is the deterministic part of Stats that a strict run at a
// fixed seed reproduces digit for digit: the Gpsi stream, the results, and
// every pruning and index tally. A change to the expansion kernel that is
// meant as a pure implementation change must leave all of them untouched.
type goldenCounters struct {
	Generated, Processed, Inline, Results                  int64
	Degree, Order, Index, Injective, Verify, Label, Filter int64
	IndexQueries, BitsetAnd                                int64
}

func countersOf(st Stats) goldenCounters {
	return goldenCounters{
		st.GpsiGenerated, st.GpsiProcessed, st.InlineExpansions, st.Results,
		st.PrunedByDegree, st.PrunedByOrder, st.PrunedByIndex, st.PrunedByInjectivity,
		st.PrunedByVerify, st.PrunedByLabel, st.PrunedByFilter,
		st.EdgeIndexQueries, st.BitsetAndCandidates,
	}
}

// TestStrictCountersGolden pins every deterministic Stats counter for
// PG1–PG5 under each distribution strategy, with and without local
// expansion: strict BSP, 4 workers, seed 3, on a small Chung–Lu graph whose
// hub threshold is lowered so that both the adjacency merge path and the
// bitset AND path of candidate generation fire. Field order of each row:
// generated, processed, inline, results; pruned degree, order, index,
// injective, verify, label, filter; index queries, bitset AND.
func TestStrictCountersGolden(t *testing.T) {
	g := gen.ChungLu(1500, 6000, 1.8, 11)
	patterns := map[string]*pattern.Pattern{
		"PG1": pattern.PG1(), "PG2": pattern.PG2(), "PG3": pattern.PG3(), "PG4": pattern.PG4(), "PG5": pattern.PG5(),
	}
	cases := []struct {
		pattern  string
		strategy Strategy
		local    bool
		want     goldenCounters
	}{
		{"PG1", StrategyWorkloadAware, false, goldenCounters{2971, 2971, 0, 1419, 64, 22174, 8871, 5979, 74, 0, 0, 10364, 0}},
		{"PG1", StrategyWorkloadAware, true, goldenCounters{2971, 2971, 368, 1419, 64, 22174, 8871, 5979, 74, 0, 0, 10364, 0}},
		{"PG1", StrategyRandom, false, goldenCounters{2971, 2971, 0, 1419, 64, 22174, 8871, 5979, 74, 0, 0, 10364, 0}},
		{"PG1", StrategyRandom, true, goldenCounters{2971, 2971, 361, 1419, 64, 22174, 8871, 5979, 74, 0, 0, 10364, 0}},
		{"PG1", StrategyRoulette, false, goldenCounters{2971, 2971, 0, 1419, 64, 22174, 8871, 5979, 74, 0, 0, 10364, 0}},
		{"PG1", StrategyRoulette, true, goldenCounters{2971, 2971, 364, 1419, 64, 22174, 8871, 5979, 74, 0, 0, 10364, 0}},
		{"PG2", StrategyWorkloadAware, false, goldenCounters{34084, 34084, 0, 21859, 275, 64406, 46640, 16834, 383, 0, 0, 55381, 1655}},
		{"PG2", StrategyWorkloadAware, true, goldenCounters{34084, 34084, 8218, 21859, 274, 64404, 46507, 16834, 383, 0, 0, 55248, 1655}},
		{"PG2", StrategyRandom, false, goldenCounters{35195, 35195, 0, 21859, 443, 143034, 164696, 16834, 1494, 0, 0, 174548, 1655}},
		{"PG2", StrategyRandom, true, goldenCounters{35196, 35196, 8004, 21859, 456, 143189, 164938, 16834, 1495, 0, 0, 174791, 1655}},
		{"PG2", StrategyRoulette, false, goldenCounters{34340, 34340, 0, 21859, 309, 83636, 73477, 16834, 639, 0, 0, 82474, 1655}},
		{"PG2", StrategyRoulette, true, goldenCounters{34329, 34329, 7881, 21859, 294, 85222, 73119, 16834, 628, 0, 0, 82105, 1655}},
		{"PG3", StrategyWorkloadAware, false, goldenCounters{17288, 17288, 0, 10293, 397, 178600, 144201, 18980, 1266, 0, 0, 151898, 1348}},
		{"PG3", StrategyWorkloadAware, true, goldenCounters{17288, 17288, 3506, 10293, 397, 178599, 144204, 18980, 1266, 0, 0, 151901, 1348}},
		{"PG3", StrategyRandom, false, goldenCounters{17502, 17502, 0, 10293, 487, 274449, 165669, 18980, 1480, 0, 0, 173580, 1348}},
		{"PG3", StrategyRandom, true, goldenCounters{17470, 17470, 3770, 10293, 489, 275207, 163596, 18980, 1448, 0, 0, 171475, 1348}},
		{"PG3", StrategyRoulette, false, goldenCounters{17325, 17325, 0, 10293, 418, 199386, 148611, 18980, 1303, 0, 0, 156345, 1348}},
		{"PG3", StrategyRoulette, true, goldenCounters{17327, 17327, 3774, 10293, 413, 199761, 148358, 18980, 1305, 0, 0, 156094, 1348}},
		{"PG4", StrategyWorkloadAware, false, goldenCounters{1968, 1968, 0, 277, 541, 30636, 10735, 8827, 2, 0, 0, 13390, 0}},
		{"PG4", StrategyWorkloadAware, true, goldenCounters{1968, 1968, 117, 277, 541, 30636, 10735, 8827, 2, 0, 0, 13390, 0}},
		{"PG4", StrategyRandom, false, goldenCounters{1968, 1968, 0, 277, 541, 30636, 10735, 8827, 2, 0, 0, 13390, 0}},
		{"PG4", StrategyRandom, true, goldenCounters{1970, 1970, 124, 277, 541, 30636, 10735, 8827, 2, 0, 0, 13390, 0}},
		{"PG4", StrategyRoulette, false, goldenCounters{1968, 1968, 0, 277, 541, 30636, 10735, 8827, 2, 0, 0, 13390, 0}},
		{"PG4", StrategyRoulette, true, goldenCounters{1968, 1968, 127, 277, 541, 30636, 10735, 8827, 2, 0, 0, 13390, 0}},
		{"PG5", StrategyWorkloadAware, false, goldenCounters{561412, 561412, 0, 401435, 2634, 145435, 1002214, 189227, 7852, 0, 0, 1195007, 17428}},
		{"PG5", StrategyWorkloadAware, true, goldenCounters{562099, 562099, 153915, 401435, 2640, 145435, 1004960, 190109, 7843, 0, 0, 1198283, 17390}},
		{"PG5", StrategyRandom, false, goldenCounters{781715, 781715, 0, 401435, 11466, 145435, 9514188, 473407, 83481, 0, 0, 9816708, 16472}},
		{"PG5", StrategyRandom, true, goldenCounters{778131, 778131, 187500, 401435, 11309, 145435, 9474331, 467684, 83810, 0, 0, 9776388, 16445}},
		{"PG5", StrategyRoulette, false, goldenCounters{617923, 617923, 0, 401435, 4135, 145435, 2385853, 257859, 20438, 0, 0, 2604409, 17486}},
		{"PG5", StrategyRoulette, true, goldenCounters{618210, 618210, 150838, 401435, 4112, 145435, 2365377, 259025, 20278, 0, 0, 2583380, 17495}},
	}
	for _, tc := range cases {
		opts := NewOptions()
		opts.Workers = 4
		opts.Seed = 3
		opts.Strategy = tc.strategy
		opts.BitmapMinDegree = 40
		opts.LocalExpansion = tc.local
		res, err := Run(g, patterns[tc.pattern], opts)
		if err != nil {
			t.Fatalf("%s/%s/local=%v: %v", tc.pattern, tc.strategy, tc.local, err)
		}
		if got := countersOf(res.Stats); got != tc.want {
			t.Errorf("%s/%s/local=%v counters:\n got %+v\nwant %+v", tc.pattern, tc.strategy, tc.local, got, tc.want)
		}
	}
}
