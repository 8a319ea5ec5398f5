// Package bsp is a hand-rolled Bulk Synchronous Parallel engine in the style
// of Pregel/Giraph, the substrate the paper implements PSgL on (Section 6).
// K workers each own a random partition of the data vertices; computation
// proceeds in supersteps separated by barriers; all communication is message
// passing addressed to data vertices, routed to the owning worker.
//
// Two message exchanges are provided: the default in-process exchange, and a
// TCP exchange (tcp.go) that round-trips every inter-worker batch through
// gob encoding and the loopback network stack, for distributed-execution
// realism on a single machine. A fault-injection wrapper (faults.go) makes
// either exchange drop, delay, or error batches deterministically, for
// recovery testing.
//
// Fault tolerance mirrors the Giraph substrate the paper ran on: barriers
// are the recovery points. The engine can snapshot its state (next inboxes
// plus merged stats) into a CheckpointStore every N supersteps
// (checkpoint.go), retry failed exchanges with bounded exponential backoff
// (retry.go), rebuild the exchange and restore the latest checkpoint when a
// superstep fails, and resume an entirely new run from a persisted
// checkpoint (Config.ResumeFrom).
//
// The engine records the metrics the paper's cost model is built on
// (Equation 3): per-superstep, per-worker compute time and message counts,
// from which a simulated makespan Σ_s max_k L_ks is derived. That simulated
// makespan is what the scalability experiment (Figure 8) reports, so worker
// counts larger than the physical core count behave like real workers.
package bsp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"psgl/internal/graph"
	"psgl/internal/obs"
)

// Envelope is one message addressed to a data vertex.
type Envelope[M any] struct {
	Dest graph.VertexID
	Msg  M
}

// Program is the worker-centric computation the engine runs. Init runs once
// per worker in superstep 0 and seeds the first messages (PSgL's
// initialization phase). Process handles one delivered message in every later
// superstep (PSgL's expansion phase). Both may send new messages through the
// Context. Implementations must be safe for concurrent execution across
// workers; the engine never calls the same worker concurrently.
type Program[M any] interface {
	Init(ctx *Context[M])
	Process(ctx *Context[M], env Envelope[M])
}

// Config parameterizes a run.
type Config struct {
	// Workers is the number of BSP workers K (>= 1).
	Workers int
	// Owner maps a data vertex to the worker that owns it.
	Owner func(graph.VertexID) int
	// MaxSupersteps aborts runaway computations: at most MaxSupersteps
	// supersteps (including the initialization step) are executed. 0 means
	// 1 << 20.
	MaxSupersteps int
	// Exchange overrides the in-process message exchange (e.g.
	// NewTCPExchangeFactory, NewFaultyExchangeFactory). Nil uses the
	// in-process exchange.
	Exchange ExchangeFactory
	// StepTimeout bounds each superstep (compute plus exchange). A superstep
	// exceeding it fails like an exchange error: it is eligible for
	// checkpoint recovery, otherwise it fails the run. 0 means no deadline.
	StepTimeout time.Duration
	// Retry wraps every Exchange call in bounded exponential backoff. The
	// zero value performs a single attempt.
	Retry RetryPolicy
	// CheckpointEvery > 0 snapshots the run state (next inboxes plus merged
	// stats) into CheckpointStore at every Nth barrier.
	CheckpointEvery int
	// CheckpointStore receives barrier snapshots; required when
	// CheckpointEvery > 0, and the source of in-run recovery restores.
	CheckpointStore CheckpointStore
	// ResumeFrom, when non-nil, loads the latest snapshot from the store and
	// resumes the run from that barrier instead of starting at Init. An
	// empty store falls back to a fresh start.
	ResumeFrom CheckpointStore
	// MaxRecoveries is how many times a failed superstep (exchange error,
	// exhausted retries, or step deadline) may be recovered in-run by
	// rebuilding the exchange from its factory and restoring the latest
	// checkpoint (or restarting from scratch when no checkpoint exists yet).
	// 0 disables in-run recovery.
	MaxRecoveries int
	// AsyncExchange replaces the barriered superstep loop with the pipelined
	// async message plane (async.go): workers flush fixed-size frame batches
	// as they are produced, receivers expand frames as they arrive, and the
	// barrier degrades to a credit/ack termination detector. Final counts are
	// bit-identical to strict mode for programs whose results are independent
	// of message-processing order (the engine's are; the differential suites
	// pin it). StepTimeout does not apply (there are no steps to bound);
	// MaxSupersteps is approximated as a per-worker flushed-frame bound; and
	// checkpoints are taken at induced quiescence points instead of barriers.
	AsyncExchange bool
	// AsyncFlushEvery is the async plane's frame granularity: a worker
	// flushes a destination batch once it holds this many messages. Smaller
	// values pipeline more aggressively at higher framing overhead. 0 means
	// 256. Ignored in strict mode.
	AsyncFlushEvery int
	// CompressFrames front codes message batches (compress.go): batches are
	// sorted by encoding and shipped as shared-prefix + suffix deltas, and in
	// strict mode the per-worker inbox keeps them encoded until the run loop
	// decodes them one bounded chunk at a time — trading barrier CPU for
	// bytes on the wire and peak RSS. Requires *M to implement WireMessage
	// (silently ignored otherwise); in async mode it compresses the wire but
	// inboxes stay expanded (frames are consumed as they arrive); with the
	// in-process async exchange there are no frames at all, so it is a no-op.
	CompressFrames bool
	// Counters names the program's counters: Context.Add(id, n) adds n to
	// counter Counters[id]. Each worker tallies into a plain array indexed by
	// id; names are attached only where those arrays are folded into
	// RunStats.Counters (at each barrier in strict mode, at each quiescence
	// point and at teardown in async mode), and only counters with a nonzero
	// total appear there.
	Counters []string
	// Observer receives the run's metrics and trace events (superstep
	// timings, exchange volume, transport frames and bytes, checkpoint and
	// recovery events). Nil disables observation entirely; every hook is a
	// nil-receiver no-op, and no hook runs per message, so the compute hot
	// path is unaffected either way.
	Observer *obs.Observer
}

// ErrAborted wraps the error passed to Context.Abort.
var ErrAborted = errors.New("bsp: computation aborted")

// Snapshotter is an optional Program extension for programs carrying state
// outside the BSP inboxes — accumulators, RNG streams, local heuristic
// views. When the Program implements it, that state rides along every
// barrier snapshot and is restored (or reset, on a restart from scratch)
// together with the engine's own state, so program-side metrics stay
// exactly-once across retries, recoveries, and resumes instead of
// double-counting replayed supersteps.
//
// Both methods are only called between supersteps (at barriers), never
// concurrently with Init or Process.
type Snapshotter interface {
	// SnapshotState returns an opaque encoding of the program's barrier
	// state.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the program's state with a previously
	// snapshot one. nil data means "reset to the initial state" (a restart
	// from scratch, or a resume from a snapshot predating the program's
	// state format).
	RestoreState(data []byte) error
}

// Context is the per-worker, per-superstep API surface available to a
// Program. It is not safe to retain across supersteps.
type Context[M any] struct {
	worker int
	step   int
	cfg    *Config
	out    [][]Envelope[M] // out[w] = messages destined to worker w
	sent   int64
	// counters[id] tallies Config.Counters[id]; bsp's own builtinCounters
	// follow the program's.
	counters []int64
	aborted  *atomic.Pointer[error]
}

// Worker returns this worker's id in [0, Workers).
func (c *Context[M]) Worker() int { return c.worker }

// Step returns the current superstep (0 = initialization).
func (c *Context[M]) Step() int { return c.step }

// Send routes msg to the worker owning dest, for delivery next superstep.
func (c *Context[M]) Send(dest graph.VertexID, msg M) {
	w := c.cfg.Owner(dest)
	c.out[w] = append(c.out[w], Envelope[M]{Dest: dest, Msg: msg})
	c.sent++
}

// Add adds n to counter id, an index into Config.Counters. Counters from all
// workers are summed by name into RunStats.Counters.
func (c *Context[M]) Add(id int, n int64) { c.counters[id] += n }

// builtinCounters are the counters bsp itself feeds. Their ids follow the
// program's Config.Counters in every tally array.
var builtinCounters = [...]string{"compressed_frames", "compressed_wire_bytes", "compressed_raw_bytes"}

const (
	ctrCompressedFrames = iota
	ctrCompressedWireBytes
	ctrCompressedRawBytes
)

// addBuiltin adds n to one of bsp's own counters.
func (c *Context[M]) addBuiltin(id int, n int64) { c.counters[len(c.cfg.Counters)+id] += n }

// newTally returns a zeroed tally array for cfg's counter table.
func newTally(cfg *Config) []int64 {
	return make([]int64, len(cfg.Counters)+len(builtinCounters))
}

// foldCounters adds every nonzero tally to dst under its name and zeroes it.
func foldCounters(dst map[string]int64, cfg *Config, tally []int64) {
	for id, v := range tally {
		if v == 0 {
			continue
		}
		if id < len(cfg.Counters) {
			dst[cfg.Counters[id]] += v
		} else {
			dst[builtinCounters[id-len(cfg.Counters)]] += v
		}
		tally[id] = 0
	}
}

// Abort stops the computation: every worker short-circuits the remainder of
// its inbox for the current superstep, and the run ends at the barrier. The
// first error wins; Run returns it wrapped in ErrAborted.
func (c *Context[M]) Abort(err error) {
	if err == nil {
		err = errors.New("abort with nil error")
	}
	c.aborted.CompareAndSwap(nil, &err)
}

// RunStats reports what happened during a run.
type RunStats struct {
	Supersteps      int
	MessagesTotal   int64
	PerStepMessages []int64
	// WorkerTime[w] is worker w's total compute time across all supersteps
	// (Figure 5 reports exactly this per-worker series).
	WorkerTime []time.Duration
	// WorkerMessages[w] counts messages processed by worker w.
	WorkerMessages []int64
	// PerStepWorkerTime[s][w] is worker w's compute time in superstep s.
	PerStepWorkerTime [][]time.Duration
	Counters          map[string]int64
	// Recoveries counts in-run checkpoint-restore recoveries (not retries).
	Recoveries int
}

// SimulatedMakespan is the cost model of Equation 3: the sum over supersteps
// of the slowest worker's compute time. It is the engine's runtime metric
// when the worker count exceeds the physical core count.
func (s *RunStats) SimulatedMakespan() time.Duration {
	var total time.Duration
	for _, stepTimes := range s.PerStepWorkerTime {
		var max time.Duration
		for _, t := range stepTimes {
			if t > max {
				max = t
			}
		}
		total += max
	}
	return total
}

// Run executes prog to completion: superstep 0 calls Init on every worker;
// each later superstep delivers the previous step's messages; the run ends
// when a superstep produces no messages, or when a worker aborts.
func Run[M any](cfg Config, prog Program[M]) (*RunStats, error) {
	return RunContext[M](context.Background(), cfg, prog)
}

// RunContext is Run with cancellation: the run stops at the next barrier (or
// message boundary within a superstep) once ctx is done, and ctx deadlines
// bound the exchange's network operations. Config.StepTimeout additionally
// derives a per-superstep deadline from ctx.
func RunContext[M any](ctx context.Context, cfg Config, prog Program[M]) (rstats *RunStats, rerr error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("bsp: need >= 1 worker, have %d", cfg.Workers)
	}
	if cfg.Owner == nil {
		return nil, fmt.Errorf("bsp: Owner function is required")
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointStore == nil {
		return nil, fmt.Errorf("bsp: CheckpointEvery set without a CheckpointStore")
	}
	if cfg.MaxRecoveries > 0 && cfg.CheckpointStore == nil {
		return nil, fmt.Errorf("bsp: MaxRecoveries set without a CheckpointStore")
	}
	maxSteps := cfg.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	if cfg.AsyncExchange {
		return runAsync[M](ctx, cfg, prog, maxSteps)
	}
	// Compression needs the binary codec; types without WireMessage keep the
	// flat gob path regardless of the flag.
	compress := cfg.CompressFrames && messageIsWire[M]()
	buildExchange := func() (Exchange[M], error) {
		return newExchangeFromFactory[M](ctx, cfg.Exchange, cfg.Workers, cfg.Observer, compress)
	}
	exchange, err := buildExchange()
	if err != nil {
		return nil, err
	}
	defer func() { exchange.Close() }()

	k := cfg.Workers
	newStats := func() *RunStats {
		return &RunStats{
			WorkerTime:     make([]time.Duration, k),
			WorkerMessages: make([]int64, k),
			Counters:       map[string]int64{},
		}
	}
	stats := newStats()
	var abortPtr atomic.Pointer[error]
	inboxes := make([]Inbox[M], k)
	startStep := 0
	snapper, _ := any(prog).(Snapshotter)
	gprog, _ := any(prog).(GroupProgram[M])

	restore := func(snap *snapshot[M]) error {
		if len(snap.Stats.WorkerTime) != k || len(snap.Stats.WorkerMessages) != k {
			return fmt.Errorf("bsp: snapshot has %d workers, config has %d",
				len(snap.Stats.WorkerTime), k)
		}
		recoveries := stats.Recoveries
		*stats = snap.Stats
		stats.Recoveries = recoveries
		if stats.Counters == nil {
			stats.Counters = map[string]int64{}
		}
		inboxes = snap.inboxRows(k)
		if snapper != nil {
			// Roll the program's own state (load accumulators, RNGs, …)
			// back to the same barrier, keeping it exactly-once too.
			if err := snapper.RestoreState(snap.Prog); err != nil {
				return fmt.Errorf("bsp: restoring program state: %w", err)
			}
		}
		return nil
	}

	if cfg.ResumeFrom != nil {
		resumeStart := time.Now()
		snap, err := loadSnapshot[M](cfg.ResumeFrom)
		switch {
		case errors.Is(err, ErrNoCheckpoint):
			// Empty store: fresh start.
		case err != nil:
			return nil, fmt.Errorf("bsp: resume: %w", err)
		default:
			if err := restore(snap); err != nil {
				return nil, fmt.Errorf("bsp: resume: %w", err)
			}
			startStep = snap.Step
			cfg.Observer.Resumed(startStep, time.Since(resumeStart))
		}
	}

	cfg.Observer.RunStarted(k, startStep)
	defer func() {
		// The logical end state comes from RunStats, which rolls back with
		// barrier snapshots — exactly-once regardless of replays.
		if rstats != nil {
			cfg.Observer.RunEnded(rstats.Supersteps, rstats.MessagesTotal, rstats.Counters,
				rstats.WorkerTime, rstats.WorkerMessages, rerr)
		}
	}()

	tallies := make([][]int64, k)
	for w := range tallies {
		tallies[w] = newTally(&cfg)
	}
	runStep := func(stepCtx context.Context, step int) (outAll [][][]Envelope[M], produced int64) {
		outAll = make([][][]Envelope[M], k)
		stepTimes := make([]time.Duration, k)
		var wg sync.WaitGroup
		var producedAtomic, processedAtomic atomic.Int64
		done := stepCtx.Done()
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := &Context[M]{
					worker:   w,
					step:     step,
					cfg:      &cfg,
					out:      make([][]Envelope[M], k),
					counters: tallies[w],
					aborted:  &abortPtr,
				}
				start := time.Now()
				processed := int64(0)
				if step == 0 {
					prog.Init(ctx)
				} else {
					processed = deliverInbox(ctx, prog, gprog, &inboxes[w], &abortPtr, done)
				}
				stepTimes[w] = time.Since(start)
				outAll[w] = ctx.out
				producedAtomic.Add(ctx.sent)
				processedAtomic.Add(processed)
				stats.WorkerMessages[w] += processed
			}(w)
		}
		wg.Wait()
		for w := 0; w < k; w++ {
			stats.WorkerTime[w] += stepTimes[w]
			foldCounters(stats.Counters, &cfg, tallies[w])
		}
		stats.PerStepWorkerTime = append(stats.PerStepWorkerTime, stepTimes)
		cfg.Observer.StepComputed(step, stepTimes, processedAtomic.Load(), producedAtomic.Load())
		return outAll, producedAtomic.Load()
	}

	// recoverRun handles a failed superstep: rebuild the exchange from its
	// factory (for TCP this is the reconnect) and restore the latest
	// checkpoint — or restart from scratch when none exists yet. It returns
	// the superstep to resume from, or the error that fails the run.
	recoverRun := func(step int, cause error) (int, error) {
		if ctx.Err() != nil || cfg.CheckpointStore == nil || stats.Recoveries >= cfg.MaxRecoveries {
			return 0, cause
		}
		stats.Recoveries++
		cfg.Observer.RecoveryStarted(step, cause)
		exchange.Close()
		next, err := buildExchange()
		if err != nil {
			return 0, fmt.Errorf("rebuilding exchange after step %d: %v (original failure: %w)", step, err, cause)
		}
		exchange = next
		restoreStart := time.Now()
		snap, err := loadSnapshot[M](cfg.CheckpointStore)
		switch {
		case errors.Is(err, ErrNoCheckpoint):
			// No barrier snapshot yet: restart from scratch, resetting
			// program-side state with the engine's.
			recoveries := stats.Recoveries
			stats = newStats()
			stats.Recoveries = recoveries
			inboxes = make([]Inbox[M], k)
			if snapper != nil {
				if err := snapper.RestoreState(nil); err != nil {
					return 0, fmt.Errorf("resetting program state after step %d: %v (original failure: %w)", step, err, cause)
				}
			}
			cfg.Observer.RestartedFromScratch(step)
			return 0, nil
		case err != nil:
			return 0, fmt.Errorf("loading checkpoint after step %d: %w (original failure: %w)", step, err, cause)
		default:
			if err := restore(snap); err != nil {
				return 0, err
			}
			cfg.Observer.CheckpointRestored(snap.Step, time.Since(restoreStart))
			return snap.Step, nil
		}
	}

	for step := startStep; ; step++ {
		if err := ctx.Err(); err != nil {
			return stats, fmt.Errorf("bsp: run canceled at step %d: %w", step, err)
		}
		if step >= maxSteps {
			return stats, fmt.Errorf("bsp: exceeded %d supersteps", maxSteps)
		}
		stepCtx, cancel := ctx, func() {}
		if cfg.StepTimeout > 0 {
			stepCtx, cancel = context.WithTimeout(ctx, cfg.StepTimeout)
		}
		cfg.Observer.StepStarted(step)
		outAll, produced := runStep(stepCtx, step)
		stats.Supersteps = step + 1
		stats.PerStepMessages = append(stats.PerStepMessages, produced)
		stats.MessagesTotal += produced
		if errp := abortPtr.Load(); errp != nil {
			cancel()
			cfg.Observer.Aborted(step, *errp)
			return stats, fmt.Errorf("%w: %v", ErrAborted, *errp)
		}
		if err := stepCtx.Err(); err != nil {
			cancel()
			resume, rerr := recoverRun(step, fmt.Errorf("superstep %d interrupted: %w", step, err))
			if rerr != nil {
				return stats, fmt.Errorf("bsp: %w", rerr)
			}
			step = resume - 1
			continue
		}
		if produced == 0 {
			cancel()
			return stats, nil
		}
		var next []Inbox[M]
		exStart := time.Now()
		attempt := 0
		exErr := withRetry(stepCtx, cfg.Retry, func() error {
			attempt++
			var n []Inbox[M]
			var err error
			if compress {
				n, err = exchangeGrouped(stepCtx, exchange, step, outAll)
			} else {
				var flat [][]Envelope[M]
				flat, err = exchange.Exchange(stepCtx, step, outAll)
				if err == nil {
					n = flatInboxes(flat)
				}
			}
			if err == nil {
				next = n
				return nil
			}
			cfg.Observer.ExchangeFailed(step, attempt, err)
			return err
		})
		cancel()
		if exErr == nil {
			cfg.Observer.ExchangeDone(step, time.Since(exStart), produced)
		}
		if exErr != nil {
			resume, rerr := recoverRun(step, fmt.Errorf("exchange failed at step %d: %w", step, exErr))
			if rerr != nil {
				return stats, fmt.Errorf("bsp: %w", rerr)
			}
			step = resume - 1
			continue
		}
		inboxes = next
		if cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0 {
			ckStart := time.Now()
			nbytes, err := saveSnapshot[M](cfg.CheckpointStore, step+1, inboxes, stats, snapper)
			if err != nil {
				return stats, fmt.Errorf("bsp: checkpoint at step %d: %w", step+1, err)
			}
			cfg.Observer.CheckpointSaved(step+1, nbytes, time.Since(ckStart))
		}
	}
}

// Exchange moves each superstep's outgoing buffers to the destination
// workers' inboxes. outAll[src][dst] holds src's messages for dst; the result
// res[dst] is the concatenation over all sources. Implementations must either
// deliver the full barrier or return an error having delivered nothing
// observable — Run retries and recovers at that granularity.
type Exchange[M any] interface {
	Exchange(ctx context.Context, step int, outAll [][][]Envelope[M]) ([][]Envelope[M], error)
	Close() error
}

// ExchangeFactory builds an exchange for a given worker count without
// exposing the message type parameter in Config. Implementations are
// provided by this package (NewTCPExchangeFactory, NewFaultyExchangeFactory);
// the zero value of Config uses the in-process exchange.
type ExchangeFactory interface {
	kind() string
}

type localExchange[M any] struct{}

func (localExchange[M]) Exchange(_ context.Context, _ int, outAll [][][]Envelope[M]) ([][]Envelope[M], error) {
	k := len(outAll)
	res := make([][]Envelope[M], k)
	for dst := 0; dst < k; dst++ {
		total := 0
		for src := 0; src < k; src++ {
			total += len(outAll[src][dst])
		}
		buf := make([]Envelope[M], 0, total)
		for src := 0; src < k; src++ {
			buf = append(buf, outAll[src][dst]...)
		}
		res[dst] = buf
	}
	return res, nil
}

func (localExchange[M]) Close() error { return nil }
