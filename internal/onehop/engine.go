package onehop

import (
	"sync/atomic"
	"time"

	"psgl/internal/bsp"
	"psgl/internal/graph"
	"psgl/internal/pattern"
)

// Counter ids of the engine's bsp.Context tallies, named by counterNames.
const (
	ctrGenerated = iota
	ctrResults
	ctrPrunedVerify
	ctrPrunedLocal
)

var counterNames = []string{"generated", "results", "pruned_verify", "pruned_local"}

// ohEngine implements bsp.Program[message] for the fixed-order traversal.
type ohEngine struct {
	g       *graph.Graph
	ord     *graph.Ordered
	p       *pattern.Pattern
	order   []int // traversal order; order[0] is the start vertex
	anchors []int // anchors[i] = earlier pattern neighbor of order[i]
	part    graph.Partition
	budget  int64

	generated atomic.Int64
	oom       atomic.Bool
}

// Init seeds one match per admissible data vertex at order[0] and ships it to
// its own verification step (trivial) which immediately extends.
func (e *ohEngine) Init(ctx *bsp.Context[message]) {
	v0 := e.order[0]
	minDeg := e.p.Degree(v0)
	w := ctx.Worker()
	for v := 0; v < e.g.NumVertices(); v++ {
		vd := graph.VertexID(v)
		if e.part.Owner(vd) != w || e.g.Degree(vd) < minDeg {
			continue
		}
		m := message{Match: make([]graph.VertexID, e.p.N()), Pos: 0, Kind: kindVerify}
		for i := range m.Match {
			m.Match[i] = -1
		}
		m.Match[v0] = vd
		e.send(ctx, m.Match[v0], m)
	}
}

func (e *ohEngine) Process(ctx *bsp.Context[message], env bsp.Envelope[message]) {
	if e.oom.Load() {
		return
	}
	m := env.Msg
	switch m.Kind {
	case kindVerify:
		e.verify(ctx, m)
	case kindExtend:
		e.extend(ctx, m)
	}
}

// verify runs at the data vertex mapped to order[Pos]: all pattern edges from
// that vertex to earlier matched vertices are checked against the local
// adjacency (the one-hop index). This is where invalid intermediates finally
// die — after they were shipped.
func (e *ohEngine) verify(ctx *bsp.Context[message], m message) {
	pos := int(m.Pos)
	pv := e.order[pos]
	vd := m.Match[pv]
	for _, u := range e.p.Neighbors(pv) {
		if m.Match[u] < 0 {
			continue
		}
		if u == e.anchors[pos] {
			continue // the anchor edge holds by construction
		}
		if !e.g.HasEdge(vd, m.Match[u]) {
			ctx.Add(ctrPrunedVerify, 1)
			return
		}
	}
	if pos == len(e.order)-1 {
		ctx.Add(ctrResults, 1)
		return
	}
	// Route to the next vertex's anchor for extension.
	next := pos + 1
	m.Pos = int8(next)
	m.Kind = kindExtend
	e.send(ctx, m.Match[e.anchors[next]], m)
}

// extend runs at the anchor of order[Pos]: one candidate match per admissible
// neighbor. Degree, injectivity, and partial-order filters always apply.
// Additionally, a pattern edge (pv, u) is verifiable in place when map(u) is
// a data neighbor of the anchor: PowerGraph's gather along the data edge
// (anchor, map(u)) materializes N(map(u)) at the anchor's machine (the
// hopscotch one-hop index), so membership of the candidate is a local
// lookup. This is what makes the engine excellent at triangles — every
// closing edge is one hop from the anchor — while patterns whose closing
// edges span two hops still ship each candidate before it can die.
func (e *ohEngine) extend(ctx *bsp.Context[message], m message) {
	pos := int(m.Pos)
	pv := e.order[pos]
	anchorPV := e.anchors[pos]
	anchor := m.Match[anchorPV]
	minDeg := e.p.Degree(pv)

	// Split pv's mapped pattern neighbors into locally verifiable (one hop
	// from the anchor) and deferred (need shipping to the candidate).
	var localChecks []graph.VertexID
	deferred := false
	for _, u := range e.p.Neighbors(pv) {
		if u == anchorPV || m.Match[u] < 0 {
			continue
		}
		if e.g.HasEdge(anchor, m.Match[u]) {
			localChecks = append(localChecks, m.Match[u])
		} else {
			deferred = true
		}
	}
	last := pos == len(e.order)-1

	// Hopscotch-intersection trick: a candidate must be a common neighbor of
	// the anchor and every locally checkable vertex, so iterate the smallest
	// of those adjacency lists and membership-test the rest. On skewed
	// graphs this is what makes PowerGraph-style triangle counting fast.
	source := e.g.Neighbors(anchor)
	checks := localChecks
	if len(localChecks) > 0 {
		smallest, smallestIdx := anchor, -1
		for i, d := range localChecks {
			if e.g.Degree(d) < e.g.Degree(smallest) {
				smallest, smallestIdx = d, i
			}
		}
		if smallestIdx >= 0 {
			source = e.g.Neighbors(smallest)
			checks = make([]graph.VertexID, 0, len(localChecks))
			checks = append(checks, anchor)
			for i, d := range localChecks {
				if i != smallestIdx {
					checks = append(checks, d)
				}
			}
		}
	}

	for _, c := range source {
		if e.g.Degree(c) < minDeg || used(m.Match, c) {
			continue
		}
		ok := true
		for u := 0; u < e.p.N() && ok; u++ {
			if m.Match[u] < 0 || u == pv {
				continue
			}
			if e.p.MustPrecede(pv, u) && !e.ord.Less(c, m.Match[u]) {
				ok = false
			} else if e.p.MustPrecede(u, pv) && !e.ord.Less(m.Match[u], c) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		for _, d := range checks {
			if !e.g.HasEdge(c, d) {
				ok = false
				break
			}
		}
		if !ok {
			ctx.Add(ctrPrunedLocal, 1)
			continue
		}
		if last && !deferred {
			// Fully verified in place: a complete instance, no shipping.
			ctx.Add(ctrResults, 1)
			continue
		}
		child := message{
			Match: append([]graph.VertexID(nil), m.Match...),
			Pos:   m.Pos,
			Kind:  kindVerify,
		}
		child.Match[pv] = c
		e.send(ctx, c, child)
		if e.oom.Load() {
			return
		}
	}
}

func used(match []graph.VertexID, x graph.VertexID) bool {
	for _, v := range match {
		if v == x {
			return true
		}
	}
	return false
}

func (e *ohEngine) send(ctx *bsp.Context[message], dest graph.VertexID, m message) {
	ctx.Send(dest, m)
	ctx.Add(ctrGenerated, 1)
	if e.budget > 0 && e.generated.Add(1) > e.budget {
		e.oom.Store(true)
		ctx.Abort(ErrOutOfMemory)
	}
}

func (e *ohEngine) result(rs *bsp.RunStats, wall time.Duration) *Result {
	return &Result{
		Count: rs.Counters["results"],
		Stats: Stats{
			Supersteps:        rs.Supersteps,
			Generated:         rs.Counters["generated"],
			Results:           rs.Counters["results"],
			PrunedByVerify:    rs.Counters["pruned_verify"],
			PrunedLocally:     rs.Counters["pruned_local"],
			WorkerTime:        rs.WorkerTime,
			SimulatedMakespan: rs.SimulatedMakespan(),
			WallTime:          wall,
		},
	}
}
