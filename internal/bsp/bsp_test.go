package bsp

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psgl/internal/graph"
)

// echoProgram floods: Init seeds one message per owned vertex carrying a TTL;
// Process re-sends with TTL-1 until it reaches zero, counting deliveries.
type echoProgram struct {
	vertices int
	ttl      int
	part     graph.Partition
	mu       sync.Mutex
	seen     map[graph.VertexID]int
}

func (p *echoProgram) Init(ctx *Context[int]) {
	for v := 0; v < p.vertices; v++ {
		if p.part.Owner(graph.VertexID(v)) == ctx.Worker() {
			ctx.Send(graph.VertexID(v), p.ttl)
		}
	}
}

func (p *echoProgram) Process(ctx *Context[int], env Envelope[int]) {
	ctx.Add(0, 1) // "delivered"
	p.mu.Lock()
	p.seen[env.Dest]++
	p.mu.Unlock()
	if env.Msg > 0 {
		ctx.Send((env.Dest+1)%graph.VertexID(p.vertices), env.Msg-1)
	}
}

func newEcho(vertices, ttl, workers int) (*echoProgram, Config) {
	part := graph.NewPartition(workers, 7)
	prog := &echoProgram{vertices: vertices, ttl: ttl, part: part, seen: map[graph.VertexID]int{}}
	cfg := Config{Workers: workers, Owner: func(v graph.VertexID) int { return part.Owner(v) }, Counters: []string{"delivered"}}
	return prog, cfg
}

func TestRunDeliversAllMessages(t *testing.T) {
	prog, cfg := newEcho(100, 5, 4)
	stats, err := Run[int](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Each of 100 chains delivers ttl+1 = 6 messages.
	if stats.Counters["delivered"] != 600 {
		t.Fatalf("delivered = %d, want 600", stats.Counters["delivered"])
	}
	if stats.MessagesTotal != 600 {
		t.Fatalf("MessagesTotal = %d, want 600", stats.MessagesTotal)
	}
	// Init + 5 forwarding supersteps + final empty-producing superstep.
	if stats.Supersteps != 7 {
		t.Fatalf("Supersteps = %d, want 7", stats.Supersteps)
	}
}

func TestRunRoutesToOwner(t *testing.T) {
	// Process must only see messages whose Dest the worker owns.
	workers := 5
	part := graph.NewPartition(workers, 3)
	var mu sync.Mutex
	misrouted := 0
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) {
			if ctx.Worker() == 0 {
				for v := 0; v < 200; v++ {
					ctx.Send(graph.VertexID(v), 0)
				}
			}
		},
		process: func(ctx *Context[int], env Envelope[int]) {
			if part.Owner(env.Dest) != ctx.Worker() {
				mu.Lock()
				misrouted++
				mu.Unlock()
			}
		},
	}
	cfg := Config{Workers: workers, Owner: func(v graph.VertexID) int { return part.Owner(v) }}
	if _, err := Run[int](cfg, prog); err != nil {
		t.Fatal(err)
	}
	if misrouted != 0 {
		t.Fatalf("%d messages misrouted", misrouted)
	}
}

type funcProgram[M any] struct {
	init    func(*Context[M])
	process func(*Context[M], Envelope[M])
}

func (p *funcProgram[M]) Init(ctx *Context[M]) { p.init(ctx) }
func (p *funcProgram[M]) Process(ctx *Context[M], env Envelope[M]) {
	p.process(ctx, env)
}

func TestRunEmptyProgramTerminates(t *testing.T) {
	prog := &funcProgram[int]{
		init:    func(*Context[int]) {},
		process: func(*Context[int], Envelope[int]) {},
	}
	cfg := Config{Workers: 3, Owner: func(graph.VertexID) int { return 0 }}
	stats, err := Run[int](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 1 || stats.MessagesTotal != 0 {
		t.Fatalf("empty program: steps=%d msgs=%d", stats.Supersteps, stats.MessagesTotal)
	}
}

func TestAbortStopsRun(t *testing.T) {
	boom := errors.New("boom")
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) { ctx.Send(0, 1) },
		process: func(ctx *Context[int], env Envelope[int]) {
			ctx.Abort(boom)
			ctx.Send(0, 1) // keeps producing; abort must still win
		},
	}
	cfg := Config{Workers: 2, Owner: func(graph.VertexID) int { return 0 }}
	_, err := Run[int](cfg, prog)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

func TestMaxSuperstepsGuard(t *testing.T) {
	// An infinite program must run exactly MaxSupersteps supersteps — not
	// MaxSupersteps+1 (the historical off-by-one).
	var calls atomic.Int64
	prog := &funcProgram[int]{
		init: func(ctx *Context[int]) { ctx.Send(0, 1) },
		process: func(ctx *Context[int], env Envelope[int]) {
			calls.Add(1)
			ctx.Send(0, 1)
		},
	}
	cfg := Config{Workers: 1, Owner: func(graph.VertexID) int { return 0 }, MaxSupersteps: 10}
	stats, err := Run[int](cfg, prog)
	if err == nil {
		t.Fatal("infinite program should hit the superstep guard")
	}
	if stats.Supersteps != 10 {
		t.Fatalf("Supersteps = %d, want exactly 10", stats.Supersteps)
	}
	// Superstep 0 is Init; supersteps 1..9 each process one message.
	if calls.Load() != 9 {
		t.Fatalf("Process calls = %d, want exactly 9", calls.Load())
	}
}

func TestConfigValidation(t *testing.T) {
	prog := &funcProgram[int]{init: func(*Context[int]) {}, process: func(*Context[int], Envelope[int]) {}}
	if _, err := Run[int](Config{Workers: 0, Owner: func(graph.VertexID) int { return 0 }}, prog); err == nil {
		t.Error("Workers=0 accepted")
	}
	if _, err := Run[int](Config{Workers: 1}, prog); err == nil {
		t.Error("nil Owner accepted")
	}
}

func TestStatsShape(t *testing.T) {
	prog, cfg := newEcho(50, 3, 4)
	stats, err := Run[int](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.WorkerTime) != 4 || len(stats.WorkerMessages) != 4 {
		t.Fatal("per-worker stats wrong length")
	}
	if len(stats.PerStepWorkerTime) != stats.Supersteps {
		t.Fatalf("PerStepWorkerTime has %d steps, want %d", len(stats.PerStepWorkerTime), stats.Supersteps)
	}
	var total int64
	for _, m := range stats.WorkerMessages {
		total += m
	}
	if total != stats.MessagesTotal {
		t.Fatalf("worker message sum %d != total %d", total, stats.MessagesTotal)
	}
	if stats.SimulatedMakespan() < 0 {
		t.Fatal("negative makespan")
	}
	if len(stats.PerStepMessages) != stats.Supersteps {
		t.Fatal("PerStepMessages length mismatch")
	}
}

func TestSimulatedMakespanIsSumOfStepMaxima(t *testing.T) {
	stats := &RunStats{
		PerStepWorkerTime: [][]time.Duration{
			{3 * time.Millisecond, 7 * time.Millisecond},
			{10 * time.Millisecond, 1 * time.Millisecond},
		},
	}
	if got := stats.SimulatedMakespan(); got != 17*time.Millisecond {
		t.Fatalf("SimulatedMakespan = %v, want 17ms", got)
	}
}

func TestTCPExchangeMatchesLocal(t *testing.T) {
	runWith := func(factory ExchangeFactory) *RunStats {
		prog, cfg := newEcho(60, 4, 3)
		cfg.Exchange = factory
		stats, err := Run[int](cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	local := runWith(nil)
	tcp := runWith(NewTCPExchangeFactory())
	if local.MessagesTotal != tcp.MessagesTotal {
		t.Fatalf("message totals differ: local=%d tcp=%d", local.MessagesTotal, tcp.MessagesTotal)
	}
	if local.Supersteps != tcp.Supersteps {
		t.Fatalf("supersteps differ: local=%d tcp=%d", local.Supersteps, tcp.Supersteps)
	}
	if local.Counters["delivered"] != tcp.Counters["delivered"] {
		t.Fatalf("delivered differ: local=%d tcp=%d",
			local.Counters["delivered"], tcp.Counters["delivered"])
	}
}

func TestTCPExchangeSingleWorker(t *testing.T) {
	prog, cfg := newEcho(20, 2, 1)
	cfg.Exchange = NewTCPExchangeFactory()
	stats, err := Run[int](cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["delivered"] != 60 {
		t.Fatalf("delivered = %d, want 60", stats.Counters["delivered"])
	}
}

type structMsg struct {
	Mapping []int32
	Next    int8
	Mask    uint32
}

func TestTCPExchangeStructMessages(t *testing.T) {
	// Gpsi-shaped struct messages must survive the gob round trip intact.
	var mu sync.Mutex
	var received []structMsg
	prog := &funcProgram[structMsg]{
		init: func(ctx *Context[structMsg]) {
			if ctx.Worker() == 0 {
				ctx.Send(5, structMsg{Mapping: []int32{1, -1, 3}, Next: 2, Mask: 0xdead})
			}
		},
		process: func(ctx *Context[structMsg], env Envelope[structMsg]) {
			mu.Lock()
			received = append(received, env.Msg)
			mu.Unlock()
		},
	}
	part := graph.NewPartition(2, 1)
	cfg := Config{
		Workers:  2,
		Owner:    func(v graph.VertexID) int { return part.Owner(v) },
		Exchange: NewTCPExchangeFactory(),
	}
	if _, err := Run[structMsg](cfg, prog); err != nil {
		t.Fatal(err)
	}
	if len(received) != 1 {
		t.Fatalf("received %d messages, want 1", len(received))
	}
	got := received[0]
	if got.Next != 2 || got.Mask != 0xdead || len(got.Mapping) != 3 || got.Mapping[2] != 3 {
		t.Fatalf("struct mangled in transit: %+v", got)
	}
}

func BenchmarkLocalExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, cfg := newEcho(500, 3, 4)
		if _, err := Run[int](cfg, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, cfg := newEcho(500, 3, 4)
		cfg.Exchange = NewTCPExchangeFactory()
		if _, err := Run[int](cfg, prog); err != nil {
			b.Fatal(err)
		}
	}
}
