package core

import (
	"math"

	"psgl/internal/stats"
)

// chooseNext implements Algorithm 3: given the GRAY candidates of a freshly
// generated Gpsi, pick the next expanding pattern vertex (which fixes the
// destination worker, since the Gpsi travels to the owner of its mapped data
// vertex).
func (e *engine) chooseNext(worker int, m *gpsi, grays []int) int {
	if len(grays) == 1 {
		// Still account the load for the workload-aware view.
		if e.opts.Strategy == StrategyWorkloadAware {
			k := grays[0]
			e.chargeView(worker, e.part.Owner(m.Map[k]), e.expandCost(m, k))
		}
		return grays[0]
	}
	switch e.opts.Strategy {
	case StrategyRoulette:
		return e.chooseRoulette(worker, m, grays)
	case StrategyWorkloadAware:
		return e.chooseWorkloadAware(worker, m, grays)
	default:
		return grays[e.rngs[worker].intn(len(grays))]
	}
}

// expandCost is the cost-model estimate of expanding GRAY vertex k:
// w = C(deg(v_d), #WHITE neighbors of k), the upper bound on the number of
// child Gpsis (Section 5.1.1). Capped to keep the arithmetic finite.
func (e *engine) expandCost(m *gpsi, k int) float64 {
	whiteCount := 0
	for _, u := range e.p.Neighbors(k) {
		if !m.isMapped(u) {
			whiteCount++
		}
	}
	c := stats.Binomial(e.g.Degree(m.Map[k]), whiteCount)
	if math.IsInf(c, 1) || c > 1e15 {
		c = 1e15
	}
	if c < 1 {
		c = 1
	}
	return c
}

// chooseRoulette implements the roulette-wheel strategy of Section 5.1.2:
// GRAY vertex k is chosen with probability
// p_k = Π_{j≠k} deg(v_dj) / Σ_i Π_{j≠i} deg(v_dj), which simplifies to
// weights 1/deg(v_dk) — smaller-degree data vertices expand more Gpsis
// (Heuristic 1).
func (e *engine) chooseRoulette(worker int, m *gpsi, grays []int) int {
	var total float64
	sc := &e.scratch[worker]
	weights := sc.weights[:0]
	for _, k := range grays {
		d := e.g.Degree(m.Map[k])
		if d < 1 {
			d = 1
		}
		w := 1 / float64(d)
		weights = append(weights, w)
		total += w
	}
	sc.weights = weights // keep the grown buffer for the next draw
	r := e.rngs[worker].float64v() * total
	for i, w := range weights {
		if r <= w {
			return grays[i]
		}
		r -= w
	}
	return grays[len(grays)-1]
}

// chooseWorkloadAware implements the workload-aware strategy of Section
// 5.1.1: pick argmin_k { W_j^α + w_ik } where j = owner(map(k)), using this
// worker's local view of every worker's accumulated load (the paper keeps
// the view local to avoid global synchronization, Section 6), then charge
// the chosen worker's view.
func (e *engine) chooseWorkloadAware(worker int, m *gpsi, grays []int) int {
	pow := e.wpow[worker]
	best, bestScore, bestCost := -1, math.Inf(1), 0.0
	for _, k := range grays {
		cost := e.expandCost(m, k)
		score := pow[e.part.Owner(m.Map[k])] + cost
		if score < bestScore {
			best, bestScore, bestCost = k, score, cost
		}
	}
	e.chargeView(worker, e.part.Owner(m.Map[best]), bestCost)
	return best
}

// chargeView adds cost to worker's view of worker j's load and refreshes the
// cached score term wviews^Alpha for that entry.
func (e *engine) chargeView(worker, j int, cost float64) {
	e.wviews[worker][j] += cost
	e.wpow[worker][j] = math.Pow(e.wviews[worker][j], e.opts.Alpha)
}

// refreshViewPow recomputes every cached score term of worker's view, after
// the view was reset or restored wholesale.
func (e *engine) refreshViewPow(worker int) {
	pow := e.wpow[worker][:0]
	for _, v := range e.wviews[worker] {
		pow = append(pow, math.Pow(v, e.opts.Alpha))
	}
	e.wpow[worker] = pow
}
