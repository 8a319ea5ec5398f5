package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"psgl/internal/centralized"
	"psgl/internal/core"
	"psgl/internal/graph"
	"psgl/internal/pattern"
	"psgl/internal/stats"
)

// The serve-mixed workload: one psgl-server with its default admission
// (2 queries in flight) and 2 engine workers per query, driven over at most
// clientConns connections by an open-loop phase and then a closed-loop
// phase of the same request mix.
const (
	serveSpec   = "chunglu:4000:16000:1.8"
	clientConns = 2
	// openRate is the open-loop request rate, about half of what the closed
	// loop sustains (≈34 per second) on the 2-core machine the benchmark was
	// sized on.
	openRate = 16
	// openShare is the share of the timed phase the open loop takes; the
	// closed loop sends closedPerSecond requests per second of the timed
	// phase. At 30 s that is 336 open-loop requests (224 reads, 112
	// updates) over 21 s and 300 closed-loop ones, about 9 s.
	openShare       = 0.7
	closedPerSecond = 10
	// Every third request is an update of batchAdds random pair additions
	// and batchRemoves removals of present edges.
	updateEvery  = 3
	batchAdds    = 2
	batchRemoves = 2
	streamLimit  = 1000
	// requestTimeout bounds one request, so a hung server cannot keep the
	// run from ending.
	requestTimeout = 20 * time.Second
)

// readMix is the read half of the mix, taken round robin. Each heavy kind
// gets a tenth of the reads (22 of 224 at 30 s), enough for its own
// median; cheap counts make up the rest, as lookups do in a serving mix.
// The order keeps two heavy reads from being adjacent.
var readMix = []struct{ Kind, Pattern string }{
	{"count", "triangle"},
	{"count", "clique(4)"},
	{"count", "triangle"},
	{"count", "path(3)"},
	{"count", "cycle(4)"},
	{"count", "triangle"},
	{"count", "clique(4)"},
	{"stream", "diamond"},
	{"count", "triangle"},
	{"census", "census(3)"},
}

// readKinds lists the distinct read patterns of readMix.
func readKinds() []string {
	var ks []string
	for _, r := range readMix {
		if !slices.Contains(ks, r.Pattern) {
			ks = append(ks, r.Pattern)
		}
	}
	return ks
}

// countPatterns are the patterns whose final count is checked against the
// oracle: every read pattern of the mix, the streamed one included.
var countPatterns = []string{"triangle", "clique(4)", "path(3)", "cycle(4)", "diamond"}

// mixGen generates the seeded request mix. Update batches touch pairwise
// disjoint vertex pairs, so the final edge set does not depend on the order
// in which concurrent updates reach the server.
type mixGen struct {
	rng     *rand.Rand
	base    *graph.Graph
	edges   [][2]graph.VertexID // edges of base, for removals
	touched map[[2]graph.VertexID]bool
	batches []graph.Batch // every batch generated, in generation order
	reads   int           // reads generated so far, for the round robin
}

func newMixGen(seed int64, base *graph.Graph) *mixGen {
	m := &mixGen{rng: rand.New(rand.NewSource(seed)), base: base, touched: map[[2]graph.VertexID]bool{}}
	base.Edges(func(u, v graph.VertexID) bool {
		m.edges = append(m.edges, [2]graph.VertexID{u, v})
		return true
	})
	return m
}

func pair(u, v graph.VertexID) [2]graph.VertexID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.VertexID{u, v}
}

// batch returns a new update batch: batchAdds pairs absent from the graph
// and batchRemoves present edges, none touched by an earlier batch.
func (m *mixGen) batch() graph.Batch {
	var b graph.Batch
	n := m.base.NumVertices()
	for len(b.Add) < batchAdds {
		e := pair(graph.VertexID(m.rng.Intn(n)), graph.VertexID(m.rng.Intn(n)))
		if e[0] == e[1] || m.touched[e] || m.base.HasEdge(e[0], e[1]) {
			continue
		}
		m.touched[e] = true
		b.Add = append(b.Add, e)
	}
	for len(b.Remove) < batchRemoves {
		e := m.edges[m.rng.Intn(len(m.edges))]
		if m.touched[e] {
			continue
		}
		m.touched[e] = true
		b.Remove = append(b.Remove, e)
	}
	m.batches = append(m.batches, b)
	return b
}

// ops returns the next n requests of the mix: every updateEvery-th an
// update, the rest reads round robin over readMix. The order is the same
// for every seed, so which reads find the census cache filled does not vary
// with the seed; the seed picks the graph and the edges of every batch.
func (m *mixGen) ops(n int) ([]op, error) {
	out := make([]op, 0, n)
	for i := 0; i < n; i++ {
		if i%updateEvery == updateEvery-1 {
			b := m.batch()
			body, err := json.Marshal(map[string][][2]graph.VertexID{"add": b.Add, "remove": b.Remove})
			if err != nil {
				return nil, err
			}
			out = append(out, op{Kind: "update", Path: "/update", Body: body, Adds: len(b.Add), Removes: len(b.Remove)})
			continue
		}
		r := readMix[m.reads%len(readMix)]
		m.reads++
		q := url.Values{"pattern": {r.Pattern}}
		switch r.Kind {
		case "count":
			q.Set("count_only", "1")
		case "stream":
			q.Set("limit", strconv.Itoa(streamLimit))
		}
		out = append(out, op{Kind: r.Kind, Pattern: r.Pattern, Path: "/query?" + q.Encode()})
	}
	return out, nil
}

// reply is what the benchmark reads from a successful reply.
type reply struct {
	WallMS    float64 `json:"wall_ms"`
	Count     int64   `json:"count"`
	Truncated bool    `json:"truncated"`
	Cached    bool    `json:"cached"`
	K         int     `json:"k"`
	Subgraphs int64   `json:"subgraphs"`
	Classes   []struct {
		Code  uint32 `json:"code"`
		Count int64  `json:"count"`
	} `json:"classes"`
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Epoch   uint64 `json:"epoch"`
	Done    bool   `json:"done"`
	Error   string `json:"error"`
}

// checkReply checks one reply against what its op must produce and returns
// the parsed reply. Counts of reads cannot be checked one by one, since the
// epoch a read saw is not known; the final counts are checked instead.
func checkReply(o *op, r *result) (reply, error) {
	var rep reply
	if r.Err != nil {
		return rep, r.Err
	}
	if r.Status != http.StatusOK {
		return rep, fmt.Errorf("status %d: %s", r.Status, strings.TrimSpace(string(r.Body)))
	}
	if o.Kind == "stream" {
		return checkStream(r.Body)
	}
	if err := json.Unmarshal(r.Body, &rep); err != nil {
		return rep, fmt.Errorf("bad reply: %v", err)
	}
	switch o.Kind {
	case "count":
		if rep.Count < 0 || rep.Truncated {
			return rep, fmt.Errorf("bad count reply %s", r.Body)
		}
	case "census":
		var sum int64
		for _, c := range rep.Classes {
			sum += c.Count
		}
		if rep.K != 3 || rep.Subgraphs <= 0 || sum != rep.Subgraphs {
			return rep, fmt.Errorf("census classes sum to %d of %d subgraphs (k=%d)", sum, rep.Subgraphs, rep.K)
		}
	case "update":
		if rep.Added != o.Adds || rep.Removed != o.Removes || rep.Epoch == 0 {
			return rep, fmt.Errorf("update applied %d adds and %d removes of %d and %d", rep.Added, rep.Removed, o.Adds, o.Removes)
		}
	}
	return rep, nil
}

// checkStream checks an NDJSON stream of diamond embeddings: injective
// 4-vertex embeddings, then one trailer whose count is the number of lines,
// capped by the limit.
func checkStream(body []byte) (reply, error) {
	var rep reply
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	for i, l := range lines[:len(lines)-1] {
		var e struct {
			Embedding []graph.VertexID `json:"embedding"`
		}
		if err := json.Unmarshal([]byte(l), &e); err != nil || len(e.Embedding) != 4 {
			return rep, fmt.Errorf("stream line %d is not a 4-vertex embedding: %q", i, l)
		}
		seen := map[graph.VertexID]bool{}
		for _, v := range e.Embedding {
			if seen[v] {
				return rep, fmt.Errorf("stream line %d is not injective: %v", i, e.Embedding)
			}
			seen[v] = true
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || !rep.Done || rep.Error != "" {
		return rep, fmt.Errorf("bad stream trailer %q", lines[len(lines)-1])
	}
	n := int64(len(lines) - 1)
	if rep.Count != n || n > streamLimit || (n < streamLimit && rep.Truncated) {
		return rep, fmt.Errorf("stream sent %d embeddings, trailer says %d (truncated %v)", n, rep.Count, rep.Truncated)
	}
	return rep, nil
}

// serverProc is a running psgl-server.
type serverProc struct {
	cmd   *exec.Cmd
	base  string        // "http://host:port"
	done  chan struct{} // closed once the process has exited and been waited for
	state *os.ProcessState
}

// startServer starts psgl-server on a free loopback port and returns once
// /healthz answers 200, with the time from process start to that answer.
func startServer(ctx context.Context, cfg config, logPath string) (*serverProc, time.Duration, error) {
	if cfg.Server == "" {
		return nil, 0, errors.New("serve-mixed needs -server, the psgl-server binary")
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(cfg.Server, "-gen", serveSpec, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-workers", strconv.Itoa(workers), "-max-inflight", "2", "-addr", "127.0.0.1:0")
	cmd.Stdout = logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &serverProc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		const marker = "serving on http://"
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, marker); i >= 0 {
				a, _, _ := strings.Cut(line[i+len(marker):], " ")
				select {
				case addr <- a:
				default: // only the first address line counts
				}
			}
		}
		cmd.Wait()
		s.state = cmd.ProcessState
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		return nil, 0, fmt.Errorf("psgl-server exited during start; see %s", logPath)
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, 0, errors.New("psgl-server did not start listening within 60s")
	case <-ctx.Done():
		s.kill()
		return nil, 0, ctx.Err()
	}
	c := &http.Client{Timeout: time.Second}
	for {
		if resp, err := c.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second || ctx.Err() != nil {
			s.kill()
			return nil, 0, errors.New("psgl-server /healthz did not answer 200 within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to drain and exit and waits for it; it kills the
// server if it has not exited within 30 s. A server that does not drain
// cleanly is an error.
func (s *serverProc) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("psgl-server did not drain within 30s")
	}
	if !s.state.Success() {
		return fmt.Errorf("psgl-server exited with %v", s.state)
	}
	return nil
}

// kill ends the server at once and waits for it.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Graph struct {
		Edges       int64  `json:"edges"`
		Fingerprint string `json:"fingerprint"`
		Epoch       uint64 `json:"epoch"`
	} `json:"graph"`
	Plans struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"plan_cache"`
	Queries struct {
		Rejected int64 `json:"rejected"`
	} `json:"queries"`
	Census struct {
		Queries         int64 `json:"queries"`
		ResultCacheHits int64 `json:"result_cache_hits"`
	} `json:"census"`
	Mutations struct {
		Batches         int64  `json:"batches"`
		EdgeFingerprint string `json:"edge_fingerprint"`
	} `json:"mutations"`
}

func getStats(ctx context.Context, c *http.Client, base string) (serverStats, error) {
	var st serverStats
	r := do(ctx, c, base, &op{Path: "/stats"}, time.Now())
	if r.Err != nil {
		return st, r.Err
	}
	if r.Status != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", r.Status)
	}
	return st, json.Unmarshal(r.Body, &st)
}

// planPolls keeps, per serving epoch, the plan-cache counters of the last
// /stats read in that epoch: the server starts a fresh plan cache at every
// update, so the hit ratio over a run is summed across epochs.
type planPolls struct {
	mu      sync.Mutex
	byEpoch map[uint64][2]int64
}

func (p *planPolls) add(st serverStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.byEpoch == nil {
		p.byEpoch = map[uint64][2]int64{}
	}
	cur := p.byEpoch[st.Graph.Epoch]
	if st.Plans.Hits+st.Plans.Misses >= cur[0]+cur[1] {
		p.byEpoch[st.Graph.Epoch] = [2]int64{st.Plans.Hits, st.Plans.Misses}
	}
}

func (p *planPolls) hitRatio() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var hits, total int64
	for _, c := range p.byEpoch {
		hits += c[0]
		total += c[0] + c[1]
	}
	return ratio(float64(hits), float64(total))
}

func runServe(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(cfg.Out, fmt.Sprintf("psgl-server-%s-seed%d.log", cfg.Workload, cfg.Seed))

	// Set-up: start the server setupReps times; keep the last one.
	var srv *serverProc
	var setups []time.Duration
	for r := 0; r < setupReps; r++ {
		var d time.Duration
		var err error
		tr.timed("setup", "serve", "psgl-server start", 0, func(int) { srv, d, err = startServer(ctx, cfg, logPath) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if r < setupReps-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	out.Values["setup_s"] = durMedian(setups)

	// The benchmark's own copy of the resident graph, replayed at the end.
	var base *graph.Graph
	var gens []time.Duration
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		g, err := generate(serveSpec, cfg.Seed, tr, "setup")
		if err != nil {
			return nil, err
		}
		gens = append(gens, time.Since(t))
		base = g
	}
	out.Values["graph.gen_s"] = durMedian(gens)

	mix := newMixGen(cfg.Seed, base)
	nOpen := int(openRate * openShare * cfg.Seconds.Seconds())
	openOps, err := mix.ops(nOpen)
	if err != nil {
		return nil, err
	}
	for i := range openOps {
		openOps[i].Due = time.Duration(float64(i) / openRate * float64(time.Second))
	}
	nClosed := int(closedPerSecond * cfg.Seconds.Seconds())
	closedOps, err := mix.ops(nClosed)
	if err != nil {
		return nil, err
	}
	var tracedOps []op
	if tr != nil {
		if tracedOps, err = mix.ops(nClosed); err != nil {
			return nil, err
		}
	}

	client := newClient(clientConns, requestTimeout)
	defer client.CloseIdleConnections()

	// Open loop. The traced run reads /stats before each update, so that the
	// plan-cache counters of every epoch are seen before the epoch ends.
	var polls planPolls
	var before func(o *op)
	if tr != nil {
		before = func(o *op) {
			if o.Kind != "update" {
				return
			}
			var st serverStats
			var err error
			tr.timed("stats", "serve", "http /stats", 0, func(int) { st, err = getStats(ctx, client, srv.base) })
			if err == nil {
				polls.add(st)
			}
		}
	}
	t0 := time.Now()
	openRes := openLoop(ctx, client, srv.base, openOps, t0, before)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	openReps := judge(cfg, out, openOps, openRes)
	cfg.Log("%s seed %d: open loop %d requests (%d updates) in %.1fs", cfg.Workload, cfg.Seed, len(openOps), len(openOps)/updateEvery, time.Since(t0).Seconds())
	serveOpenMetrics(out, openOps, openRes, openReps)
	recordSpans(tr, "open", t0, openOps, openRes, openReps)

	// Closed loop; the traced run runs a second, traced closed loop to
	// measure the tracing overhead.
	t1 := time.Now()
	closedRes, elapsed := closedLoop(ctx, client, srv.base, closedOps, clientConns, t1, nil)
	closedReps := judge(cfg, out, closedOps, closedRes)
	var okClosed int
	for i := range closedRes {
		if closedRes[i].Latency != failed {
			okClosed++
		}
	}
	out.Values["sat_qps"] = ratio(float64(okClosed), elapsed.Seconds())
	cfg.Log("%s seed %d: closed loop %d requests in %.1fs", cfg.Workload, cfg.Seed, len(closedOps), elapsed.Seconds())
	recordSpans(tr, "closed", t1, closedOps, closedRes, closedReps)
	if tr != nil {
		t2 := time.Now()
		res, tracedElapsed := closedLoop(ctx, client, srv.base, tracedOps, clientConns, t2, before)
		reps := judge(cfg, out, tracedOps, res)
		recordSpans(tr, "traced", t2, tracedOps, res, reps)
		out.Values["trace.overhead_frac"] = ratio(tracedElapsed.Seconds(), elapsed.Seconds()) - 1
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Final checks: the server's graph equals the replay of every batch, and
	// every read pattern's count equals the oracle's on that graph.
	ov := graph.NewOverlay(base)
	for _, b := range mix.batches {
		tr.timed("replay", "graph", "graph.Overlay.ApplyBatch", 0, func(int) { _, err = ov.ApplyBatch(b) })
		if err != nil {
			return nil, fmt.Errorf("replaying update batches: %w", err)
		}
	}
	var final *graph.Graph
	tr.timed("replay", "graph", "graph.Overlay.Snapshot", 0, func(int) { final = ov.Snapshot() })
	finalChecks(ctx, cfg, out, client, srv.base, ov, final, tr, &polls)
	if tr != nil {
		if err := serveLayers(ctx, cfg, out, final, tr); err != nil {
			return nil, err
		}
	}

	// Stop the server; its resource usage covers the whole fixed request
	// list: start, both phases and the final checks.
	s := srv
	srv = nil
	out.Attempted++
	if err := s.stop(); err != nil {
		out.fail(cfg.Log, "stopping psgl-server: %v", err)
	}
	ru, ok := s.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no resource usage for psgl-server")
	}
	out.Values["cpu_s"] = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	out.Values["peak_rss_mb"] = float64(ru.Maxrss) / 1024
	out.Values["ok_frac"] = ratio(float64(out.Attempted-out.Failed), float64(out.Attempted))
	return out, nil
}

// judge checks every reply, counts each op as attempted, and marks a failed
// op's latency as failed.
func judge(cfg config, out *outcome, ops []op, res []result) []reply {
	reps := make([]reply, len(ops))
	for i := range ops {
		out.Attempted++
		rep, err := checkReply(&ops[i], &res[i])
		if err != nil {
			res[i].Latency = failed
			out.fail(cfg.Log, "%s %s: %v", ops[i].Kind, ops[i].Path, err)
			continue
		}
		reps[i] = rep
	}
	return reps
}

// serveOpenMetrics fills the metrics taken from the open-loop phase.
func serveOpenMetrics(out *outcome, ops []op, res []result, reps []reply) {
	var reads, updates, engine, overhead, apply, lags []float64
	byKind := map[string][]float64{}
	byPattern := map[string][]float64{}
	countsBy := map[string][]float64{} // count replies by pattern
	wallsBy := map[string][]float64{}
	var censusSubgraphs, censusWall float64
	for i := range ops {
		r := res[i]
		lags = append(lags, r.lag())
		if !ops[i].isRead() {
			updates = append(updates, r.Latency)
			if r.Latency != failed {
				apply = append(apply, reps[i].WallMS)
			}
			continue
		}
		reads = append(reads, r.Latency)
		byKind[ops[i].Kind] = append(byKind[ops[i].Kind], r.Latency)
		byPattern[ops[i].Pattern] = append(byPattern[ops[i].Pattern], r.Latency)
		if r.Latency == failed {
			continue
		}
		engine = append(engine, reps[i].WallMS)
		overhead = append(overhead, r.Latency-reps[i].WallMS)
		switch {
		case ops[i].Kind == "count":
			countsBy[ops[i].Pattern] = append(countsBy[ops[i].Pattern], float64(reps[i].Count))
			wallsBy[ops[i].Pattern] = append(wallsBy[ops[i].Pattern], reps[i].WallMS/1000)
		case ops[i].Kind == "census" && !reps[i].Cached:
			censusSubgraphs += float64(reps[i].Subgraphs)
			censusWall += reps[i].WallMS / 1000
		}
	}
	put := func(name string, xs []float64, q float64) {
		if v, ok := percentile(xs, q); ok {
			out.Values[name] = v
		}
	}
	put("serve.query_p50_ms", reads, 0.5)
	put("serve.query_p95_ms", reads, 0.95)
	put("serve.update_p50_ms", updates, 0.5)
	put("serve.update_p90_ms", updates, 0.9)
	put("serve.count_p50_ms", byKind["count"], 0.5)
	put("serve.stream_p50_ms", byKind["stream"], 0.5)
	put("serve.census_p50_ms", byKind["census"], 0.5)
	put("serve.engine_p50_ms", engine, 0.5)
	put("serve.overhead_p50_ms", overhead, 0.5)
	put("serve.update_apply_p50_ms", apply, 0.5)
	put("loadgen.lag_p95_ms", lags, 0.95)
	// The latency of a typical read: the mean over the read kinds of each
	// kind's median. Cheap reads that overlap a heavy one take several times
	// longer than alone, so the latencies of the whole mix form clusters
	// with gaps between them, and a median over the whole mix jumps between
	// clusters from run to run; each kind's own median does not.
	var kindMedians []float64
	for _, k := range readKinds() {
		if v, ok := percentile(byPattern[k], 0.5); ok {
			kindMedians = append(kindMedians, v)
		}
	}
	if len(kindMedians) == len(readKinds()) {
		var sum float64
		for _, v := range kindMedians {
			sum += v
		}
		out.Values["query_ms"] = sum / float64(len(kindMedians))
	}
	// Per pattern, the median count over the median engine time: concurrent
	// queries share the cores, and medians keep an unlucky overlap from
	// moving the rate.
	var emb, wall float64
	for p, counts := range countsBy {
		emb += median(counts)
		wall += median(wallsBy[p])
	}
	out.Values["embeddings_per_s"] = ratio(emb, wall)
	out.Values["esu.subgraphs_per_s"] = ratio(censusSubgraphs, censusWall)
}

// recordSpans turns each request of a phase into a span tree: the request
// from its due time (loadgen), the HTTP exchange from its send (serve), and
// the server's reported wall time at the end of it (the engine layer that
// answered).
func recordSpans(tr *tracer, phase string, t0 time.Time, ops []op, res []result, reps []reply) {
	if tr == nil {
		return
	}
	for i := range ops {
		trace := fmt.Sprintf("%s r%d", phase, i)
		r := res[i]
		root := tr.add(trace, "loadgen", strings.TrimSpace("request "+ops[i].Kind+" "+ops[i].Pattern), 0, t0.Add(r.Due), t0.Add(r.End))
		httpID := tr.add(trace, "serve", "http "+strings.SplitN(ops[i].Path, "?", 2)[0], root, t0.Add(r.Start), t0.Add(r.End))
		if r.Latency == failed {
			continue
		}
		layer := map[string]string{"count": "core", "stream": "core", "census": "esu", "update": "graph"}[ops[i].Kind]
		wall := time.Duration(reps[i].WallMS * float64(time.Millisecond))
		tr.add(trace, layer, "server "+ops[i].Kind, httpID, t0.Add(r.End-wall), t0.Add(r.End))
	}
}

// finalChecks compares the server's final state with the replay: the edge
// and CSR fingerprints, the epoch, every read pattern's count and the
// census histogram. Each check is one attempted operation.
func finalChecks(ctx context.Context, cfg config, out *outcome, c *http.Client, base string, ov *graph.Overlay, final *graph.Graph, tr *tracer, polls *planPolls) {
	out.Attempted++
	var st serverStats
	var err error
	tr.timed("final", "serve", "http /stats", 0, func(int) { st, err = getStats(ctx, c, base) })
	switch {
	case err != nil:
		out.fail(cfg.Log, "/stats: %v", err)
	case st.Mutations.EdgeFingerprint != fmt.Sprintf("%016x", ov.Fingerprint()),
		st.Graph.Fingerprint != fmt.Sprintf("%016x", final.Fingerprint()),
		st.Graph.Epoch != ov.Epoch(), st.Graph.Edges != final.NumEdges():
		out.fail(cfg.Log, "server graph (epoch %d, %d edges, fingerprints %s/%s) differs from the replay (epoch %d, %d edges, %016x/%016x)",
			st.Graph.Epoch, st.Graph.Edges, st.Graph.Fingerprint, st.Mutations.EdgeFingerprint,
			ov.Epoch(), final.NumEdges(), final.Fingerprint(), ov.Fingerprint())
	}
	polls.add(st)
	out.Values["serve.plan_hit_ratio"] = polls.hitRatio()
	out.Values["serve.census_hit_ratio"] = ratio(float64(st.Census.ResultCacheHits), float64(st.Census.Queries))
	out.Values["serve.rejected"] = float64(st.Queries.Rejected)

	// The oracle runs its counts two at a time, and the census beside them,
	// while the checks query the server.
	want := make([]int64, len(countPatterns))
	var wantHist map[uint32]int64
	var wantTotal int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, name := range countPatterns {
		p, err := pattern.Parse(name)
		if err != nil {
			out.fail(cfg.Log, "pattern %s: %v", name, err)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p *pattern.Pattern) {
			defer wg.Done()
			defer func() { <-sem }()
			tr.timed("final "+name, "oracle", "centralized.CountInstances", 0, func(int) {
				want[i] = centralized.CountInstances(p.BreakAutomorphisms(), final)
			})
		}(i, p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr.timed("final census(3)", "oracle", "centralized.MotifCensus", 0, func(int) {
			wantHist, wantTotal = centralized.MotifCensus(final, 3)
		})
	}()
	ops := make([]op, 0, len(countPatterns)+1)
	for _, name := range countPatterns {
		ops = append(ops, op{Kind: "count", Pattern: name, Path: "/query?" + url.Values{"pattern": {name}, "count_only": {"1"}}.Encode()})
	}
	ops = append(ops, op{Kind: "census", Pattern: "census(3)", Path: "/query?" + url.Values{"pattern": {"census(3)"}}.Encode()})
	t0 := time.Now()
	res, _ := closedLoop(ctx, c, base, ops, 1, t0, nil)
	reps := judge(cfg, out, ops, res)
	recordSpans(tr, "final", t0, ops, res, reps)
	wg.Wait()
	for i, name := range countPatterns {
		if res[i].Latency != failed && reps[i].Count != want[i] {
			out.fail(cfg.Log, "final %s count %d, oracle %d", name, reps[i].Count, want[i])
		}
	}
	last := len(ops) - 1
	if res[last].Latency == failed {
		return
	}
	got := map[uint32]int64{}
	for _, cl := range reps[last].Classes {
		got[centralized.CanonicalSubgraphCode(3, cl.Code)] += cl.Count
	}
	ok := reps[last].Subgraphs == wantTotal && len(got) == len(wantHist)
	for code, n := range wantHist {
		ok = ok && got[code] == n
	}
	if !ok {
		out.fail(cfg.Log, "final census(3) %v (%d subgraphs), oracle %v (%d)", got, reps[last].Subgraphs, wantHist, wantTotal)
	}
}

// serveLayers fills the engine-side layer metrics of serve-mixed, which the
// server does not expose per query: the benchmark plans each read pattern
// as the server does and counts it once in-process, with the server's
// options, on the final graph.
func serveLayers(ctx context.Context, cfg config, out *outcome, final *graph.Graph, tr *tracer) error {
	pats := make([]*pattern.Pattern, len(countPatterns))
	for i, name := range countPatterns {
		p, err := pattern.Parse(name)
		if err != nil {
			return err
		}
		pats[i] = p
	}
	bm, bl, pl := indexTimes(final, pats, tr, "plan final")
	out.Values["graph.bitmap_build_ms"] = bm
	out.Values["bloom.build_ms"] = bl
	out.Values["pattern.plan_us"] = pl

	dist := stats.FromHistogram(final.DegreeHistogram())
	traced := make([][]callRec, len(pats))
	for i, p := range pats {
		broken := p.BreakAutomorphisms()
		opts := core.NewOptions()
		opts.Workers = workers
		opts.Seed = cfg.Seed
		opts.PlannedPattern = true
		opts.InitialVertex = core.SelectInitialVertex(broken, dist)
		rec, err := runCall(ctx, final, broken, opts, true)
		if err != nil {
			return err
		}
		callSpans(tr, "engine "+countPatterns[i], 0, &rec)
		traced[i] = []callRec{rec}
	}
	listLayers(traced, out)
	return nil
}
