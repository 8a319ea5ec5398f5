package core

import (
	"math/rand"
	"testing"

	"psgl/internal/gen"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// pairwiseOrderOK is the partial-order filter as a scan over every mapped
// pattern vertex: d may host WHITE vertex wv only if it ranks above every
// mapped vertex that must precede wv and below every mapped vertex that wv
// must precede. It is the oracle rankWindow must agree with.
func pairwiseOrderOK(p *pattern.Pattern, ord *graph.Ordered, m *gpsi, wv int, d graph.VertexID) bool {
	for u := 0; u < p.N(); u++ {
		if u == wv || !m.isMapped(u) {
			continue
		}
		if p.MustPrecede(wv, u) && !ord.Less(d, m.Map[u]) {
			return false
		}
		if p.MustPrecede(u, wv) && !ord.Less(m.Map[u], d) {
			return false
		}
	}
	return true
}

// randomPattern draws a connected pattern on 3–7 vertices: a random spanning
// tree plus each remaining pair with probability 1/2, so symmetric shapes
// (and therefore symmetry-breaking orders) are common.
func randomPattern(rng *rand.Rand) *pattern.Pattern {
	n := 3 + rng.Intn(5)
	var edges [][2]int
	has := map[[2]int]bool{}
	add := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if a != b && !has[[2]int{a, b}] {
			has[[2]int{a, b}] = true
			edges = append(edges, [2]int{a, b})
		}
	}
	for v := 1; v < n; v++ {
		add(rng.Intn(v), v)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Intn(2) == 0 {
				add(a, b)
			}
		}
	}
	return pattern.MustNew("random", n, edges)
}

// TestRankWindowMatchesPairwiseOrder checks, over random patterns with their
// automorphisms broken and random partial Gpsi states, that the rank window
// accepts exactly the data vertices the pairwise MustPrecede scan accepts.
func TestRankWindowMatchesPairwiseOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := gen.ChungLu(200, 800, 2.0, 3)
	ord := graph.NewOrdered(g)
	var accepted, rejected, constrained int
	for trial := 0; trial < 300; trial++ {
		p := randomPattern(rng).BreakAutomorphisms()
		e := &engine{p: p, ord: ord}
		for state := 0; state < 20; state++ {
			m := gpsi{N: int8(p.N())}
			for i := range m.Map {
				m.Map[i] = unmapped
			}
			// Map a random nonempty proper subset to distinct data vertices,
			// leaving at least one WHITE vertex.
			perm := rng.Perm(p.N())
			nMapped := 1 + rng.Intn(p.N()-1)
			used := map[graph.VertexID]bool{}
			for _, u := range perm[:nMapped] {
				d := graph.VertexID(rng.Intn(g.NumVertices()))
				for used[d] {
					d = graph.VertexID(rng.Intn(g.NumVertices()))
				}
				used[d] = true
				m.Map[u] = d
			}
			wv := perm[nMapped+rng.Intn(p.N()-nMapped)]
			lo, hi := e.rankWindow(&m, wv)
			if lo >= 0 || hi < int32(g.NumVertices()) {
				constrained++
			}
			for v := 0; v < g.NumVertices(); v++ {
				d := graph.VertexID(v)
				r := ord.Rank(d)
				got := lo < r && r < hi
				if want := pairwiseOrderOK(p, ord, &m, wv, d); got != want {
					t.Fatalf("%v, map %v, white %d, d=%d (rank %d): window (%d,%d) accepts=%v, pairwise=%v",
						p, m.Map[:m.N], wv, d, r, lo, hi, got, want)
				}
				if got {
					accepted++
				} else {
					rejected++
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 || constrained < 100 {
		t.Fatalf("weak sample: %d accepted, %d rejected, %d constrained windows", accepted, rejected, constrained)
	}
}
