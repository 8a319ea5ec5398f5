package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"psgl/internal/bloom"
	"psgl/internal/bsp"
	"psgl/internal/graph"
	"psgl/internal/pattern"
	"psgl/internal/stats"
)

// Run lists all instances of p in g with the PSgL engine and returns the
// count (and instances when opts.Collect is set) together with run metrics.
//
// Unless opts.DisableAutomorphismBreaking is set, the pattern's automorphisms
// are broken first, so every instance is found exactly once regardless of how
// p was constructed.
func Run(g *graph.Graph, p *pattern.Pattern, opts Options) (*Result, error) {
	return RunContext(context.Background(), g, p, opts)
}

// RunContext is Run with cancellation and fault-tolerance plumbing: ctx
// cancellation stops the run at the next message boundary, and the Options
// checkpoint/retry/recovery fields configure the BSP engine's fault layer.
func RunContext(ctx context.Context, g *graph.Graph, p *pattern.Pattern, opts Options) (*Result, error) {
	if g == nil || p == nil {
		return nil, fmt.Errorf("psgl: nil graph or pattern")
	}
	if p.N() > maxPatternVertices {
		return nil, fmt.Errorf("psgl: pattern has %d vertices; engine supports up to %d", p.N(), maxPatternVertices)
	}
	opts = opts.normalized()
	if (opts.DataLabels != nil) != p.Labeled() {
		return nil, fmt.Errorf("psgl: labeled matching needs labels on both the pattern and the data graph")
	}
	if opts.DataLabels != nil && len(opts.DataLabels) != g.NumVertices() {
		return nil, fmt.Errorf("psgl: %d data labels for %d vertices", len(opts.DataLabels), g.NumVertices())
	}

	if err := validateSeeds(g, p, opts.Seeds); err != nil {
		return nil, err
	}

	if opts.DisableAutomorphismBreaking {
		p = p.StripOrders()
	} else if !opts.PlannedPattern {
		p = p.BreakAutomorphisms()
	}

	e, err := newEngine(g, p, opts)
	if err != nil {
		return nil, err
	}

	cfg := bsp.Config{
		Workers:         opts.Workers,
		Owner:           func(v graph.VertexID) int { return e.part.Owner(v) },
		MaxSupersteps:   opts.MaxSupersteps,
		Exchange:        opts.Exchange,
		AsyncExchange:   opts.AsyncExchange,
		CompressFrames:  opts.CompressFrames,
		StepTimeout:     opts.StepTimeout,
		Retry:           opts.Retry,
		CheckpointEvery: opts.CheckpointEvery,
		CheckpointStore: opts.CheckpointStore,
		ResumeFrom:      opts.ResumeFrom,
		MaxRecoveries:   opts.MaxRecoveries,
		Counters:        counterNames[:],
		Observer:        opts.Observer,
	}
	start := time.Now()
	runStats, err := bsp.RunContext[gpsi](ctx, cfg, e)
	wall := time.Since(start)
	if err != nil {
		if oom := e.oomErr.Load(); oom != nil {
			return e.buildResult(runStats, wall), ErrOutOfMemory
		}
		if e.stopped.Load() {
			// The MaxResults early stop aborts the BSP run on purpose; the
			// truncated enumeration is a success.
			return e.buildResult(runStats, wall), nil
		}
		return nil, err
	}
	return e.buildResult(runStats, wall), nil
}

// errEarlyStop is the sentinel the engine aborts with once MaxResults
// instances have been found; RunContext converts it back into a successful,
// truncated result.
var errEarlyStop = errors.New("psgl: result limit reached")

// Counter ids of the engine's bsp.Context tallies. counterNames gives each
// its RunStats.Counters key, which buildResult reads back into Stats.
const (
	ctrGenerated = iota
	ctrProcessed
	ctrInline
	ctrResults
	ctrPrunedDegree
	ctrPrunedLabel
	ctrPrunedOrder
	ctrPrunedIndex
	ctrPrunedInjective
	ctrPrunedVerify
	ctrPrunedFilter
	ctrIndexQueries
	ctrBitsetAnd
	ctrGroupRuns
	ctrGroupMembers
	numCounters
)

var counterNames = [numCounters]string{
	ctrGenerated:       "generated",
	ctrProcessed:       "processed",
	ctrInline:          "inline",
	ctrResults:         "results",
	ctrPrunedDegree:    "pruned_degree",
	ctrPrunedLabel:     "pruned_label",
	ctrPrunedOrder:     "pruned_order",
	ctrPrunedIndex:     "pruned_index",
	ctrPrunedInjective: "pruned_injective",
	ctrPrunedVerify:    "pruned_verify",
	ctrPrunedFilter:    "pruned_filter",
	ctrIndexQueries:    "index_queries",
	ctrBitsetAnd:       "bitset_and",
	ctrGroupRuns:       "group_runs",
	ctrGroupMembers:    "group_members",
}

// engine implements bsp.Program[gpsi] (and bsp.Snapshotter, so its
// accumulators ride barrier snapshots and stay exactly-once under recovery).
type engine struct {
	g    *graph.Graph
	ord  *graph.Ordered
	p    *pattern.Pattern
	opts Options
	part graph.Partition
	ix   *bloom.EdgeIndex
	// bitmap accelerates exact edge verification against hub vertices
	// (Section 5.1.1: "costg ... can be done efficiently by a bitmap index").
	bitmap *graph.BitmapIndex

	initial int
	// proto is the blank Gpsi Init stamps per seed vertex: all WHITE, sized
	// and aimed at the initial pattern vertex.
	proto gpsi
	// edgeID[a][b] numbers the pattern edges for the Pending bitmask.
	edgeID [][]int
	// pEdges caches p.Edges() (which builds a fresh slice per call) for the
	// pending-edge scan in grayCandidates.
	pEdges [][2]int
	// owned[w] lists worker w's data vertices, bucketed once in newEngine so
	// Init is O(V) total instead of every worker filtering all vertices.
	owned [][]graph.VertexID

	// Per-worker state; index w is touched only by worker w's goroutine
	// (bsp guarantees one goroutine per worker per superstep, with barriers
	// establishing happens-before between supersteps).
	rngs   []*xorshift
	wviews [][]float64 // workload-aware local views of all workers' loads
	// wpow[w][j] caches wviews[w][j]^Alpha, the load term of the
	// workload-aware score; chargeView keeps it in step with wviews.
	wpow    [][]float64
	loads   []float64       // actual accumulated cost-model load units
	scratch []workerScratch // reusable expansion buffers (zero-alloc hot path)
	// stepLoads[w][s] is worker w's load units in superstep s (grown only by
	// worker w), the basis of the Equation 3 load makespan.
	stepLoads [][]float64

	// generated counts created Gpsis against MaxIntermediate; it is only
	// touched when a budget is set.
	generated atomic.Int64
	oomErr    atomic.Pointer[error]
	// results counts emitted instances when MaxResults > 0; stopped latches
	// once the cap is hit so every worker short-circuits its remaining work.
	results atomic.Int64
	stopped atomic.Bool

	mu        sync.Mutex
	instances [][]graph.VertexID
}

// expandFrame is one depth level of a worker's expansion scratch: the WHITE
// vertices being combined and their candidate buffers. LocalExpansion inlines
// expansions recursively (depth bounded by the pattern size: each inline step
// blackens a vertex), so frames form a small stack; reusing them keeps
// steady-state expansion allocation-free.
type expandFrame struct {
	whites [maxPatternVertices]int
	nw     int
	cands  [maxPatternVertices][]graph.VertexID
}

// workerScratch is the per-worker reusable buffer set of the hot path. Only
// worker w's goroutine touches scratch[w].
type workerScratch struct {
	frames  []*expandFrame
	depth   int
	grays   []int
	weights []float64
	emit    []graph.VertexID
	// baseCands[k] is the hoisted candidate base for the k-th WHITE vertex of
	// the group-expansion run in flight (ProcessGroup). Valid only between
	// expandRun building it and the run's last member; nested inline
	// expansions never touch it.
	baseCands [maxPatternVertices][]graph.VertexID
}

func (s *workerScratch) push() *expandFrame {
	if s.depth == len(s.frames) {
		s.frames = append(s.frames, &expandFrame{})
	}
	f := s.frames[s.depth]
	s.depth++
	f.nw = 0
	return f
}

func (s *workerScratch) pop() { s.depth-- }

func newEngine(g *graph.Graph, p *pattern.Pattern, opts Options) (*engine, error) {
	ord := graph.NewOrdered
	if opts.IdentityOrder {
		ord = graph.NewIdentityOrdered
	}
	e := &engine{
		g:    g,
		ord:  ord(g),
		p:    p,
		opts: opts,
		part: graph.NewPartition(opts.Workers, opts.Seed),
	}
	if !opts.DisableEdgeIndex {
		e.ix = bloom.BuildEdgeIndex(g, opts.BloomBitsPerEdge)
	}
	e.bitmap = graph.NewBitmapIndex(g, opts.BitmapMinDegree)
	n := p.N()
	e.edgeID = make([][]int, n)
	for a := range e.edgeID {
		e.edgeID[a] = make([]int, n)
		for b := range e.edgeID[a] {
			e.edgeID[a][b] = -1
		}
	}
	e.pEdges = p.Edges()
	for i, edge := range e.pEdges {
		if i >= 32 {
			return nil, fmt.Errorf("psgl: pattern has more than 32 edges")
		}
		e.edgeID[edge[0]][edge[1]] = i
		e.edgeID[edge[1]][edge[0]] = i
	}
	switch {
	case opts.InitialVertex >= p.N():
		return nil, fmt.Errorf("psgl: initial vertex %d out of range [0,%d)", opts.InitialVertex, p.N())
	case opts.InitialVertex >= 0:
		e.initial = opts.InitialVertex
	default:
		e.initial = SelectInitialVertex(p, stats.FromHistogram(g.DegreeHistogram()))
	}
	e.proto = gpsi{Next: int8(e.initial), N: int8(n)}
	for i := range e.proto.Map {
		e.proto.Map[i] = unmapped
	}
	e.owned = make([][]graph.VertexID, opts.Workers)
	for v := 0; v < g.NumVertices(); v++ {
		w := e.part.Owner(graph.VertexID(v))
		e.owned[w] = append(e.owned[w], graph.VertexID(v))
	}
	e.rngs = make([]*xorshift, opts.Workers)
	e.wviews = make([][]float64, opts.Workers)
	e.wpow = make([][]float64, opts.Workers)
	e.loads = make([]float64, opts.Workers)
	e.scratch = make([]workerScratch, opts.Workers)
	e.stepLoads = make([][]float64, opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		e.rngs[w] = newXorshift(workerRngSeed(opts.Seed, w))
		e.wviews[w] = make([]float64, opts.Workers)
		e.wpow[w] = make([]float64, opts.Workers)
		e.refreshViewPow(w)
	}
	return e, nil
}

func workerRngSeed(seed int64, w int) uint64 {
	return uint64(seed)*0x9e3779b97f4a7c15 + uint64(w) + 1
}

// validateSeeds rejects structurally malformed seeds up front: shape
// mismatches, out-of-range vertices, and non-injective pins are caller bugs,
// unlike constraint violations (degree, label, order, missing edge), which
// seedGpsi prunes silently at run time like any other dead-end Gpsi.
func validateSeeds(g *graph.Graph, p *pattern.Pattern, seeds []Seed) error {
	for i, s := range seeds {
		if len(s.PatternVertices) == 0 || len(s.PatternVertices) != len(s.DataVertices) {
			return fmt.Errorf("psgl: seed %d: %d pattern vertices pinned to %d data vertices",
				i, len(s.PatternVertices), len(s.DataVertices))
		}
		var pSeen uint32
		for j, pv := range s.PatternVertices {
			if pv < 0 || pv >= p.N() {
				return fmt.Errorf("psgl: seed %d: pattern vertex %d out of range [0,%d)", i, pv, p.N())
			}
			if pSeen&(1<<uint(pv)) != 0 {
				return fmt.Errorf("psgl: seed %d: pattern vertex %d pinned twice", i, pv)
			}
			pSeen |= 1 << uint(pv)
			dv := s.DataVertices[j]
			if int(dv) < 0 || int(dv) >= g.NumVertices() {
				return fmt.Errorf("psgl: seed %d: data vertex %d out of range [0,%d)", i, dv, g.NumVertices())
			}
			for k := 0; k < j; k++ {
				if s.DataVertices[k] == dv {
					return fmt.Errorf("psgl: seed %d: data vertex %d used twice", i, dv)
				}
			}
		}
	}
	return nil
}

// Init is the initialization phase: each data vertex that can host the
// initial pattern vertex emits a one-pair Gpsi to itself.
func (e *engine) Init(ctx *bsp.Context[gpsi]) {
	if len(e.opts.Seeds) > 0 {
		e.initSeeds(ctx)
		return
	}
	w := ctx.Worker()
	minDeg := e.p.Degree(e.initial)
	for _, vd := range e.owned[w] {
		if e.g.Degree(vd) < minDeg {
			ctx.Add(ctrPrunedDegree, 1)
			continue
		}
		if e.opts.DataLabels != nil && int(e.opts.DataLabels[vd]) != e.p.Label(e.initial) {
			ctx.Add(ctrPrunedLabel, 1)
			continue
		}
		m := e.proto
		m.Map[e.initial] = vd
		e.send(ctx, m)
	}
}

// initSeeds is the seeded initialization phase: every worker walks the full
// seed list but only materializes the seeds whose expansion vertex (the
// first pin) it owns, so each seed is admitted — and its pruning counted —
// exactly once, deterministically, like Init's ownership split.
func (e *engine) initSeeds(ctx *bsp.Context[gpsi]) {
	w := ctx.Worker()
	for _, s := range e.opts.Seeds {
		if e.part.Owner(s.DataVertices[0]) != w {
			continue
		}
		if m, ok := e.seedGpsi(ctx, s); ok {
			e.send(ctx, m)
		}
	}
}

// seedGpsi builds the pinned Gpsi for one seed, applying the same admission
// filters the unseeded flow applies at candidate time — degree, label, and
// the symmetry-breaking partial order — plus eager exact verification of
// every pattern edge between two pinned vertices (so seeds start with no
// pending edges). ok=false means the seed provably anchors no instance.
func (e *engine) seedGpsi(ctx *bsp.Context[gpsi], s Seed) (gpsi, bool) {
	m := e.proto
	for i, pv := range s.PatternVertices {
		dv := s.DataVertices[i]
		if e.g.Degree(dv) < e.p.Degree(pv) {
			ctx.Add(ctrPrunedDegree, 1)
			return m, false
		}
		if e.opts.DataLabels != nil && int(e.opts.DataLabels[dv]) != e.p.Label(pv) {
			ctx.Add(ctrPrunedLabel, 1)
			return m, false
		}
		m.Map[pv] = dv
	}
	for i, pv := range s.PatternVertices {
		du := m.Map[pv]
		for _, qv := range s.PatternVertices[i+1:] {
			dv := m.Map[qv]
			if e.p.MustPrecede(pv, qv) && !e.ord.Less(du, dv) {
				ctx.Add(ctrPrunedOrder, 1)
				return m, false
			}
			if e.p.MustPrecede(qv, pv) && !e.ord.Less(dv, du) {
				ctx.Add(ctrPrunedOrder, 1)
				return m, false
			}
			if e.p.HasEdge(pv, qv) && !e.g.HasEdge(du, dv) {
				ctx.Add(ctrPrunedVerify, 1)
				return m, false
			}
		}
	}
	m.Next = int8(s.PatternVertices[0])
	return m, true
}

// Process expands one partial subgraph instance (Algorithm 1).
func (e *engine) Process(ctx *bsp.Context[gpsi], env bsp.Envelope[gpsi]) {
	e.expand(ctx, env.Msg)
}

// ProcessGroup implements bsp.GroupProgram: in compressed mode each decoded
// frame arrives whole, in the encoder's prefix-sorted order, so Gpsis
// expanding the same data vertex at the same pattern vertex sit adjacent.
// Maximal such runs share one hoisted candidate base (expandRun); singletons
// take the ordinary expand path. The embedding multiset depends only on the
// delivered messages — bit-identical to flat mode, which the compressed
// differential suite pins — while the pruning-counter breakdown may differ
// (shared pruning counts once per run, and runs never take the bitset path).
func (e *engine) ProcessGroup(ctx *bsp.Context[gpsi], batch []bsp.Envelope[gpsi]) {
	for i := 0; i < len(batch); {
		if e.oomErr.Load() != nil || e.stopped.Load() {
			return
		}
		j := i + 1
		for j < len(batch) && sameExpansionGroup(&batch[i].Msg, &batch[j].Msg) {
			j++
		}
		if j-i > 1 {
			e.expandRun(ctx, batch[i:j])
		} else {
			e.expand(ctx, batch[i].Msg)
		}
		i = j
	}
}

// sameExpansionGroup reports whether two Gpsis can share a candidate base:
// same pattern size, same expansion point mapped to the same data vertex, and
// the same set of mapped pattern vertices (hence the same WHITE neighbors).
func sameExpansionGroup(a, b *gpsi) bool {
	return a.N == b.N && a.Next == b.Next &&
		a.Map[a.Next] == b.Map[b.Next] &&
		a.mappedMask() == b.mappedMask()
}

// expandRun expands a run of Gpsis sharing an expansion group. The run-
// invariant part of candidate generation — the expansion vertex's adjacency
// filtered by degree and label — is computed once into the worker's baseCands
// scratch; each member then refines it with its own injectivity, partial-order,
// and edge-index filters (expandShared). Base construction stops at the first
// empty base: every member dead-ends there, and refinement never looks past it.
func (e *engine) expandRun(ctx *bsp.Context[gpsi], run []bsp.Envelope[gpsi]) {
	first := &run[0].Msg
	vp := int(first.Next)
	vd := first.Map[vp]
	sc := &e.scratch[ctx.Worker()]
	var whites [maxPatternVertices]int
	nw := 0
	for _, wv := range e.p.Neighbors(vp) {
		if !first.isMapped(wv) {
			whites[nw] = wv
			nw++
		}
	}
	ctx.Add(ctrGroupRuns, 1)
	ctx.Add(ctrGroupMembers, int64(len(run)))
	for k := 0; k < nw; k++ {
		wv := whites[k]
		minDeg := e.p.Degree(wv)
		b := sc.baseCands[k][:0]
		for _, d := range e.g.Neighbors(vd) {
			if e.g.Degree(d) < minDeg {
				ctx.Add(ctrPrunedDegree, 1)
				continue
			}
			if e.opts.DataLabels != nil && int(e.opts.DataLabels[d]) != e.p.Label(wv) {
				ctx.Add(ctrPrunedLabel, 1)
				continue
			}
			b = append(b, d)
		}
		sc.baseCands[k] = b
		if len(b) == 0 {
			break
		}
	}
	for i := range run {
		if e.oomErr.Load() != nil || e.stopped.Load() {
			return
		}
		e.expandShared(ctx, run[i].Msg, whites[:nw])
	}
}

// expandShared is expand with the degree/label candidate base hoisted by
// expandRun: per-member filtering runs over sc.baseCands via refineCandidates
// instead of re-walking the expansion vertex's adjacency. Always the merge
// path — never the bitset AND — so the refined sets equal the flat merge
// path's exactly.
func (e *engine) expandShared(ctx *bsp.Context[gpsi], m gpsi, whites []int) {
	ctx.Add(ctrProcessed, 1)
	w := ctx.Worker()
	vp := int(m.Next)
	vd := m.Map[vp]
	m.Expanded |= 1 << uint(vp)

	for _, u := range e.p.Neighbors(vp) {
		if !m.isMapped(u) {
			continue
		}
		eid := e.edgeID[vp][u]
		if m.Pending&(1<<uint(eid)) == 0 {
			continue
		}
		if !e.bitmap.HasEdge(vd, m.Map[u]) {
			ctx.Add(ctrPrunedVerify, 1)
			return
		}
		m.Pending &^= 1 << uint(eid)
	}

	sc := &e.scratch[w]
	fr := sc.push()
	defer sc.pop()
	loadUnits := 1.0
	for k, wv := range whites {
		cand := e.refineCandidates(ctx, &m, vp, wv, sc.baseCands[k], fr.cands[fr.nw][:0])
		fr.cands[fr.nw] = cand
		if len(cand) == 0 {
			return // dead end: this Gpsi leads to no instance
		}
		fr.whites[fr.nw] = wv
		fr.nw++
		loadUnits *= float64(len(cand))
	}
	e.loads[w] += loadUnits
	for len(e.stepLoads[w]) <= ctx.Step() {
		e.stepLoads[w] = append(e.stepLoads[w], 0)
	}
	e.stepLoads[w][ctx.Step()] += loadUnits

	preMapped := uint16(0)
	for u := 0; u < e.p.N(); u++ {
		if m.isMapped(u) {
			preMapped |= 1 << uint(u)
		}
	}
	e.combine(ctx, &m, vp, preMapped, fr.whites[:fr.nw], fr.cands[:fr.nw], 0)
}

// refineCandidates applies the per-member half of Algorithm 5 — injectivity,
// the partial-order filter, and the light-weight edge index — to a hoisted
// base that already passed the degree and label filters. It mirrors the merge
// path of candidates exactly, minus the filters the base absorbed.
func (e *engine) refineCandidates(ctx *bsp.Context[gpsi], m *gpsi, vp, wv int, base []graph.VertexID, out []graph.VertexID) []graph.VertexID {
	lo, hi := e.rankWindow(m, wv)
	for _, d := range base {
		if m.uses(d) {
			ctx.Add(ctrPrunedInjective, 1)
			continue
		}
		if r := e.ord.Rank(d); r <= lo || r >= hi {
			ctx.Add(ctrPrunedOrder, 1)
			continue
		}
		ok := true
		if e.ix != nil {
			for _, u := range e.p.Neighbors(wv) {
				if u == vp || !m.isMapped(u) {
					continue
				}
				ctx.Add(ctrIndexQueries, 1)
				if !e.ix.MayHaveEdge(d, m.Map[u]) {
					ctx.Add(ctrPrunedIndex, 1)
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, d)
		}
	}
	return out
}

func (e *engine) expand(ctx *bsp.Context[gpsi], m gpsi) {
	if e.oomErr.Load() != nil || e.stopped.Load() {
		return
	}
	ctx.Add(ctrProcessed, 1)
	w := ctx.Worker()
	vp := int(m.Next)
	vd := m.Map[vp]
	m.Expanded |= 1 << uint(vp)

	// Verify pending edges incident to vp exactly against the local
	// adjacency (the "verification" role of later iterations; for cliques
	// this is all the later iterations do).
	for _, u := range e.p.Neighbors(vp) {
		if !m.isMapped(u) {
			continue
		}
		eid := e.edgeID[vp][u]
		if m.Pending&(1<<uint(eid)) == 0 {
			continue
		}
		if !e.bitmap.HasEdge(vd, m.Map[u]) {
			ctx.Add(ctrPrunedVerify, 1)
			return
		}
		m.Pending &^= 1 << uint(eid)
	}

	// Candidate sets for WHITE neighbors (Algorithm 5), built in this
	// worker's reusable scratch frame.
	sc := &e.scratch[w]
	fr := sc.push()
	defer sc.pop()
	loadUnits := 1.0
	for _, wv := range e.p.Neighbors(vp) {
		if m.isMapped(wv) {
			continue
		}
		cand := e.candidates(ctx, &m, vp, vd, wv, fr.cands[fr.nw][:0])
		fr.cands[fr.nw] = cand
		if len(cand) == 0 {
			return // dead end: this Gpsi leads to no instance
		}
		fr.whites[fr.nw] = wv
		fr.nw++
		loadUnits *= float64(len(cand))
	}
	e.loads[w] += loadUnits
	for len(e.stepLoads[w]) <= ctx.Step() {
		e.stepLoads[w] = append(e.stepLoads[w], 0)
	}
	e.stepLoads[w][ctx.Step()] += loadUnits

	preMapped := uint16(0)
	for u := 0; u < e.p.N(); u++ {
		if m.isMapped(u) {
			preMapped |= 1 << uint(u)
		}
	}
	e.combine(ctx, &m, vp, preMapped, fr.whites[:fr.nw], fr.cands[:fr.nw], 0)
}

// candidates appends to out the admissible data vertices for WHITE pattern
// vertex wv while expanding vp at vd, applying the degree filter, the
// partial-order filter, injectivity, and the light-weight edge index against
// wv's already-mapped neighbors (other than vp). out is a reusable scratch
// buffer owned by the caller's expansion frame.
func (e *engine) candidates(ctx *bsp.Context[gpsi], m *gpsi, vp int, vd graph.VertexID, wv int, out []graph.VertexID) []graph.VertexID {
	minDeg := e.p.Degree(wv)
	// Bitset AND fast path (back-ported from the ESU engine's BitGraph
	// kernel): when vd is a hub and wv has other already-mapped pattern
	// neighbors that are hubs too, the candidate set is confined to the
	// word-wide AND of their adjacency rows — an exact intersection, so the
	// bloom check against those neighbors is subsumed. It is a strict filter:
	// every vertex it drops lacks a real edge to a mapped neighbor and would
	// have been pruned at pending-edge verification, so counts are identical
	// with the switch off (the BenchmarkHotpath "w/o bitset" configuration).
	if !e.opts.DisableBitsetAnd {
		if rowVd := e.bitmap.Row(vd); rowVd != nil {
			var hubRows [maxPatternVertices][]uint64
			nHub := 0
			hubMask := uint32(0)
			for _, u := range e.p.Neighbors(wv) {
				if u == vp || !m.isMapped(u) {
					continue
				}
				if r := e.bitmap.Row(m.Map[u]); r != nil {
					hubRows[nHub] = r
					nHub++
					hubMask |= 1 << uint(u)
				}
			}
			if nHub > 0 {
				ctx.Add(ctrBitsetAnd, 1)
				return e.candidatesBitset(ctx, m, vp, wv, minDeg, rowVd, hubRows[:nHub], hubMask, out)
			}
		}
	}
	lo, hi := e.rankWindow(m, wv)
	for _, d := range e.g.Neighbors(vd) {
		if e.g.Degree(d) < minDeg {
			ctx.Add(ctrPrunedDegree, 1)
			continue
		}
		if e.opts.DataLabels != nil && int(e.opts.DataLabels[d]) != e.p.Label(wv) {
			ctx.Add(ctrPrunedLabel, 1)
			continue
		}
		if m.uses(d) {
			ctx.Add(ctrPrunedInjective, 1)
			continue
		}
		if r := e.ord.Rank(d); r <= lo || r >= hi {
			ctx.Add(ctrPrunedOrder, 1)
			continue
		}
		ok := true
		if e.ix != nil {
			for _, u := range e.p.Neighbors(wv) {
				if u == vp || !m.isMapped(u) {
					continue
				}
				ctx.Add(ctrIndexQueries, 1)
				if !e.ix.MayHaveEdge(d, m.Map[u]) {
					ctx.Add(ctrPrunedIndex, 1)
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, d)
		}
	}
	return out
}

// candidatesBitset is the hub-regime body of candidates: it walks the words
// of vd's bitmap row ANDed with every mapped hub neighbor's row, then applies
// the same degree/label/injectivity/order filters as the merge path. Bloom
// checks only remain for mapped neighbors outside hubMask (non-hub vertices
// have no row; their edges are still verified exactly later). The word loop
// is inlined — no IterateSet closure — to keep the hot path allocation-free.
func (e *engine) candidatesBitset(ctx *bsp.Context[gpsi], m *gpsi, vp, wv, minDeg int, rowVd []uint64, hubRows [][]uint64, hubMask uint32, out []graph.VertexID) []graph.VertexID {
	lo, hi := e.rankWindow(m, wv)
	for i, word := range rowVd {
		for _, r := range hubRows {
			word &= r[i]
		}
		base := i * 64
		for word != 0 {
			d := graph.VertexID(base + bits.TrailingZeros64(word))
			word &= word - 1
			if e.g.Degree(d) < minDeg {
				ctx.Add(ctrPrunedDegree, 1)
				continue
			}
			if e.opts.DataLabels != nil && int(e.opts.DataLabels[d]) != e.p.Label(wv) {
				ctx.Add(ctrPrunedLabel, 1)
				continue
			}
			if m.uses(d) {
				ctx.Add(ctrPrunedInjective, 1)
				continue
			}
			if r := e.ord.Rank(d); r <= lo || r >= hi {
				ctx.Add(ctrPrunedOrder, 1)
				continue
			}
			ok := true
			if e.ix != nil {
				for _, u := range e.p.Neighbors(wv) {
					if u == vp || !m.isMapped(u) || hubMask&(1<<uint(u)) != 0 {
						continue
					}
					ctx.Add(ctrIndexQueries, 1)
					if !e.ix.MayHaveEdge(d, m.Map[u]) {
						ctx.Add(ctrPrunedIndex, 1)
						ok = false
						break
					}
				}
			}
			if ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// rankWindow returns the open interval (lo, hi) of ord ranks that the
// symmetry-breaking order leaves for WHITE vertex wv, given m's mapped
// vertices: lo is the largest rank among mapped vertices that must precede
// wv, hi the smallest among mapped vertices that wv must precede. A candidate
// d satisfies every such pairwise MustPrecede constraint exactly when
// lo < Rank(d) < hi, so candidate loops pay one compare per vertex instead of
// a scan over the pattern.
func (e *engine) rankWindow(m *gpsi, wv int) (lo, hi int32) {
	lo, hi = -1, math.MaxInt32
	for u := 0; u < e.p.N(); u++ {
		if u == wv || !m.isMapped(u) {
			continue
		}
		r := e.ord.Rank(m.Map[u])
		if e.p.MustPrecede(u, wv) && r > lo {
			lo = r
		}
		if e.p.MustPrecede(wv, u) && r < hi {
			hi = r
		}
	}
	return lo, hi
}

// combine enumerates the cross product of the candidate sets, pruning
// combinations that reuse a data vertex, violate the partial order between
// two newly mapped vertices, or fail an edge-index check between two newly
// mapped vertices. Surviving children are finalized.
func (e *engine) combine(ctx *bsp.Context[gpsi], m *gpsi, vp int, preMapped uint16, whites []int, cands [][]graph.VertexID, i int) {
	if e.oomErr.Load() != nil {
		return
	}
	if i == len(whites) {
		e.finalize(ctx, m)
		return
	}
	wv := whites[i]
	for _, d := range cands[i] {
		if m.uses(d) {
			ctx.Add(ctrPrunedInjective, 1)
			continue
		}
		// Checks against pattern vertices mapped earlier in this combine
		// (candidate filtering could not see them).
		ok := true
		var newPending uint32
		for j := 0; j < i && ok; j++ {
			u := whites[j]
			du := m.Map[u]
			if e.p.MustPrecede(wv, u) && !e.ord.Less(d, du) {
				ctx.Add(ctrPrunedOrder, 1)
				ok = false
			} else if e.p.MustPrecede(u, wv) && !e.ord.Less(du, d) {
				ctx.Add(ctrPrunedOrder, 1)
				ok = false
			} else if e.p.HasEdge(wv, u) {
				if e.ix != nil {
					ctx.Add(ctrIndexQueries, 1)
					if !e.ix.MayHaveEdge(d, du) {
						ctx.Add(ctrPrunedIndex, 1)
						ok = false
						continue
					}
				}
				newPending |= 1 << uint(e.edgeID[wv][u])
			}
		}
		if !ok {
			continue
		}
		// Edges from wv to vertices mapped before this expansion, other than
		// the expanding vertex itself, were only index-checked: mark pending.
		for _, u := range e.p.Neighbors(wv) {
			if u != vp && preMapped&(1<<uint(u)) != 0 {
				newPending |= 1 << uint(e.edgeID[wv][u])
			}
		}
		m.Map[wv] = d
		m.Pending |= newPending
		e.combine(ctx, m, vp, preMapped, whites, cands, i+1)
		m.Pending &^= newPending
		m.Map[wv] = unmapped
	}
}

// finalize either emits a completed, fully verified instance or routes the
// Gpsi to its next expanding vertex per the distribution strategy.
func (e *engine) finalize(ctx *bsp.Context[gpsi], m *gpsi) {
	if m.isComplete() && m.Pending == 0 {
		if e.opts.EmitFilter != nil {
			// Hand the filter the reused per-worker buffer, not a view of m: a
			// direct m.Map slice would make every Gpsi on this path escape to
			// the heap (same reasoning as the OnInstance buffer below).
			sc := &e.scratch[ctx.Worker()]
			sc.emit = append(sc.emit[:0], m.Map[:m.N]...)
			if !e.opts.EmitFilter(sc.emit) {
				ctx.Add(ctrPrunedFilter, 1)
				return
			}
		}
		ctx.Add(ctrResults, 1)
		if e.opts.OnInstance != nil {
			// Hand out a reused per-worker buffer, not a view of m: the
			// callback may leak its argument, and a view would force every
			// Gpsi on this path to the heap. The OnInstance contract already
			// limits the slice's validity to the call.
			sc := &e.scratch[ctx.Worker()]
			sc.emit = append(sc.emit[:0], m.Map[:m.N]...)
			e.opts.OnInstance(sc.emit)
		}
		if e.opts.Collect {
			e.mu.Lock()
			e.instances = append(e.instances, append([]graph.VertexID(nil), m.Map[:m.N]...))
			e.mu.Unlock()
		}
		if e.opts.MaxResults > 0 && e.results.Add(1) >= e.opts.MaxResults {
			// The cap-hitting instance was already delivered above; stop the
			// run at the next message boundary.
			if e.stopped.CompareAndSwap(false, true) {
				ctx.Abort(errEarlyStop)
			}
		}
		return
	}
	w := ctx.Worker()
	sc := &e.scratch[w]
	grays := e.grayCandidates(m, sc.grays[:0])
	sc.grays = grays // keep the grown buffer; dead before any nested expand
	if len(grays) == 0 {
		// Unreachable for connected patterns; guard against silent loss.
		err := fmt.Errorf("psgl: stuck Gpsi with no GRAY vertex")
		ctx.Abort(err)
		return
	}
	next := e.chooseNext(w, m, grays)
	child := *m
	child.Next = int8(next)
	if e.opts.LocalExpansion && e.part.Owner(child.Map[next]) == ctx.Worker() {
		// Non-level-synchronous mode: the destination is local, so expand
		// now instead of crossing a superstep barrier. Recursion depth is
		// bounded by the pattern size (each inline step blackens a vertex).
		ctx.Add(ctrGenerated, 1)
		ctx.Add(ctrInline, 1)
		if !e.chargeBudget(ctx) {
			return
		}
		e.expand(ctx, child)
		return
	}
	e.send(ctx, child)
}

// grayCandidates appends to buf the GRAY vertices eligible as the next
// expansion point. For a complete-but-unverified Gpsi only endpoints of
// pending edges make progress on verification, so the choice narrows to them.
func (e *engine) grayCandidates(m *gpsi, buf []int) []int {
	grays := buf
	if m.isComplete() && m.Pending != 0 {
		for _, edge := range e.pEdges {
			eid := e.edgeID[edge[0]][edge[1]]
			if m.Pending&(1<<uint(eid)) == 0 {
				continue
			}
			for _, v := range edge {
				if m.isGray(v) && !contains(grays, v) {
					grays = append(grays, v)
				}
			}
		}
		if len(grays) > 0 {
			return grays
		}
	}
	for v := 0; v < e.p.N(); v++ {
		if m.isGray(v) {
			grays = append(grays, v)
		}
	}
	return grays
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// send routes a Gpsi to the worker owning its next expansion vertex and
// enforces the intermediate-result budget.
func (e *engine) send(ctx *bsp.Context[gpsi], m gpsi) {
	ctx.Send(m.Map[m.Next], m)
	ctx.Add(ctrGenerated, 1)
	e.chargeBudget(ctx)
}

// chargeBudget accounts one created Gpsi against MaxIntermediate and reports
// whether the run may continue. Without a budget it touches no shared state.
func (e *engine) chargeBudget(ctx *bsp.Context[gpsi]) bool {
	if e.opts.MaxIntermediate <= 0 {
		return true
	}
	if e.generated.Add(1) > e.opts.MaxIntermediate {
		err := ErrOutOfMemory
		e.oomErr.CompareAndSwap(nil, &err)
		ctx.Abort(err)
		return false
	}
	return true
}

// engineState is the bsp.Snapshotter payload: every accumulator the engine
// keeps outside the BSP inboxes. Capturing the RNG streams and workload
// views along with the load accumulators makes a replayed superstep take
// bit-identical routing decisions, so LoadUnits and LoadMakespan come out
// exactly-once — equal to a clean run's — across recoveries and resumes.
type engineState struct {
	Loads     []float64
	StepLoads [][]float64
	WViews    [][]float64
	Rng       []uint64
	Generated int64
}

// SnapshotState implements bsp.Snapshotter; it is called at barriers only,
// never concurrently with Init/Process.
func (e *engine) SnapshotState() ([]byte, error) {
	st := engineState{
		Loads:     e.loads,
		StepLoads: e.stepLoads,
		WViews:    e.wviews,
		Rng:       make([]uint64, len(e.rngs)),
		Generated: e.generated.Load(),
	}
	for i, r := range e.rngs {
		st.Rng[i] = r.state
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("psgl: encode engine state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements bsp.Snapshotter. nil data resets the engine's
// accumulators to their initial values (restart from scratch).
func (e *engine) RestoreState(data []byte) error {
	if data == nil {
		for w := range e.loads {
			e.loads[w] = 0
			e.stepLoads[w] = nil
			for j := range e.wviews[w] {
				e.wviews[w][j] = 0
			}
			e.refreshViewPow(w)
			*e.rngs[w] = *newXorshift(workerRngSeed(e.opts.Seed, w))
		}
		e.generated.Store(0)
		return nil
	}
	var st engineState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("psgl: decode engine state: %w", err)
	}
	k := e.opts.Workers
	if len(st.Loads) != k || len(st.WViews) != k || len(st.Rng) != k || len(st.StepLoads) != k {
		return fmt.Errorf("psgl: engine snapshot worker count mismatch (have %d workers)", k)
	}
	e.loads = st.Loads
	e.stepLoads = st.StepLoads
	e.wviews = st.WViews
	for w := range e.wviews {
		e.refreshViewPow(w)
	}
	for i := range e.rngs {
		e.rngs[i].state = st.Rng[i]
	}
	e.generated.Store(st.Generated)
	return nil
}

func (e *engine) buildResult(rs *bsp.RunStats, wall time.Duration) *Result {
	st := Stats{
		Supersteps:          rs.Supersteps,
		GpsiGenerated:       rs.Counters["generated"],
		GpsiProcessed:       rs.Counters["processed"],
		InlineExpansions:    rs.Counters["inline"],
		PrunedByDegree:      rs.Counters["pruned_degree"],
		PrunedByOrder:       rs.Counters["pruned_order"],
		PrunedByIndex:       rs.Counters["pruned_index"],
		PrunedByInjectivity: rs.Counters["pruned_injective"],
		PrunedByVerify:      rs.Counters["pruned_verify"],
		PrunedByLabel:       rs.Counters["pruned_label"],
		PrunedByFilter:      rs.Counters["pruned_filter"],
		EdgeIndexQueries:    rs.Counters["index_queries"],
		BitsetAndCandidates: rs.Counters["bitset_and"],
		CompressedFrames:    rs.Counters["compressed_frames"],
		CompressedWireBytes: rs.Counters["compressed_wire_bytes"],
		CompressedRawBytes:  rs.Counters["compressed_raw_bytes"],
		GroupRuns:           rs.Counters["group_runs"],
		GroupMembers:        rs.Counters["group_members"],
		Results:             rs.Counters["results"],
		InitialVertex:       e.initial,
		Recoveries:          rs.Recoveries,
		WorkerTime:          rs.WorkerTime,
		WorkerMessages:      rs.WorkerMessages,
		LoadUnits:           e.loads,
		PerStepMessages:     rs.PerStepMessages,
		SimulatedMakespan:   rs.SimulatedMakespan(),
		WallTime:            wall,
	}
	if e.ix != nil {
		st.EdgeIndexBytes = e.ix.SizeBytes()
	}
	// The observer's logical view mirrors the same exactly-once accumulators
	// Stats is built from (the loads ride barrier snapshots).
	e.opts.Observer.RecordWorkerLoads(e.loads)
	// Load makespan (Equation 3 with the cost-model load units): sum over
	// supersteps of the heaviest worker's load. Deterministic and
	// independent of the physical core count.
	steps := 0
	for _, sl := range e.stepLoads {
		if len(sl) > steps {
			steps = len(sl)
		}
	}
	for s := 0; s < steps; s++ {
		max := 0.0
		for _, sl := range e.stepLoads {
			if s < len(sl) && sl[s] > max {
				max = sl[s]
			}
		}
		st.LoadMakespan += max
	}
	return &Result{
		Count:     st.Results,
		Instances: e.instances,
		Truncated: e.stopped.Load(),
		Stats:     st,
	}
}

// xorshift is a tiny per-worker PRNG; math/rand would work but this keeps the
// hot strategy path allocation- and lock-free with reproducible streams.
type xorshift struct{ state uint64 }

func newXorshift(seed uint64) *xorshift {
	if seed == 0 {
		seed = 0x2545f4914f6cdd1d
	}
	return &xorshift{state: seed}
}

func (x *xorshift) next() uint64 {
	s := x.state
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	x.state = s
	return s
}

// intn returns a uniform value in [0, n) via Lemire's multiply-shift with
// rejection — unlike the naive next()%n, the distribution carries no modulo
// bias toward low indices for non-power-of-two n.
func (x *xorshift) intn(n int) int {
	v := uint64(n)
	hi, lo := bits.Mul64(x.next(), v)
	if lo < v {
		// Reject the draws that land in the short final interval.
		thresh := -v % v
		for lo < thresh {
			hi, lo = bits.Mul64(x.next(), v)
		}
	}
	return int(hi)
}

// float64v returns a uniform value in [0, 1).
func (x *xorshift) float64v() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}
