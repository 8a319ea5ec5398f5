package bsp

// Async message plane — the "kill the barrier" mode. Strict BSP (bsp.go)
// leaves every worker idle at each barrier while the slowest peer finishes
// expanding; Chen et al. (pipelined adaptive-group communication) and Ren et
// al. (shipping partial instances eagerly) both observe that overlapping
// expansion with communication is the dominant remaining speed lever. With
// Config.AsyncExchange set, workers flush fixed-size frame batches as they
// are produced and receivers start expanding frames the moment they arrive;
// the global barrier degrades to a credit/ack termination detector: each
// worker tracks frames sent vs frames acked, and the run completes when all
// workers are idle with zero outstanding credit.
//
// Correctness rests on two properties the strict engine already pins with
// tests: every message is processed exactly once (queues are drained, frames
// are acked only after enqueue), and the program's final counts are
// independent of processing order (the strategy-invariance suite proves the
// engine's backtracking enumeration reaches each embedding exactly once
// regardless of expansion order). Async mode therefore produces bit-identical
// embedding counts to strict mode; the differential suites assert exactly
// that across local and TCP transports.
//
// Fault tolerance moves from barriers to quiescence points: when a
// checkpoint is due the coordinator pauses the plane (workers flush partial
// batches and park, in-flight credit drains to zero), snapshots the queues
// plus merged stats plus program state with the same sealed snapshot format
// as strict mode, and resumes. A failed frame send (after the retry budget)
// tears the attempt down and restores the latest snapshot — or restarts from
// scratch — bounded by MaxRecoveries, mirroring the strict recovery path.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// defaultAsyncFlushEvery is the frame granularity of the async plane: a
// worker flushes a destination batch once it holds this many messages (and
// flushes all partial batches before going idle).
const defaultAsyncFlushEvery = 256

// asyncFramesPerStep converts MaxSupersteps into the async runaway bound:
// a worker may flush at most MaxSupersteps×asyncFramesPerStep frames. Async
// mode has no superstep to count, so the bound is necessarily coarser; it
// exists to turn a ping-pong program into an error instead of a hang.
const asyncFramesPerStep = 256

// creditDetector is the termination detector that replaces the barrier.
// Soundness depends on strict event ordering, enforced by the attempt:
//
//	sender:    outstanding[src]++ happens BEFORE transport.Send
//	deliverer: enqueue → idle[dst]=false → activity++ (all under the
//	           destination's queue lock), and only THEN ack (outstanding--)
//
// so a frame is always covered by either outstanding credit (in flight) or a
// non-idle destination (enqueued). quiescent() reads the activity epoch twice
// around its scan; any delivery racing the scan bumps the epoch and voids the
// verdict.
type creditDetector struct {
	outstanding []atomic.Int64 // per-worker frames sent and not yet enqueued remotely
	inFlight    atomic.Int64   // global gauge feeding the frames-in-flight peak counter
	idle        []atomic.Bool  // worker parked with an empty queue and nothing buffered
	activity    atomic.Uint64  // bumped on every enqueue; double-read by quiescent
	// onScan, when non-nil, runs between the first epoch read and the scan —
	// a test seam for racing a late frame against the verdict.
	onScan func()
}

func newCreditDetector(k int) *creditDetector {
	return &creditDetector{
		outstanding: make([]atomic.Int64, k),
		idle:        make([]atomic.Bool, k),
	}
}

// frameSent charges one credit to src and returns the global in-flight count
// after the send, for the peak gauge.
func (d *creditDetector) frameSent(src int) int64 {
	d.outstanding[src].Add(1)
	return d.inFlight.Add(1)
}

// frameAcked releases src's credit once the frame is enqueued at its
// destination.
func (d *creditDetector) frameAcked(src int) {
	d.outstanding[src].Add(-1)
	d.inFlight.Add(-1)
}

// enqueued records a frame landing in dst's queue. Callers must hold dst's
// queue lock, so the idle flag can never read true while the queue is
// non-empty.
func (d *creditDetector) enqueued(dst int) {
	d.idle[dst].Store(false)
	d.activity.Add(1)
}

func (d *creditDetector) setIdle(w int, v bool) { d.idle[w].Store(v) }

func (d *creditDetector) outstandingTotal() int64 {
	var total int64
	for i := range d.outstanding {
		total += d.outstanding[i].Load()
	}
	return total
}

// quiescent reports global termination: every worker idle and zero credit
// outstanding, with the activity epoch unchanged across the scan.
func (d *creditDetector) quiescent() bool {
	e1 := d.activity.Load()
	if d.onScan != nil {
		d.onScan()
	}
	for i := range d.outstanding {
		if d.outstanding[i].Load() != 0 {
			return false
		}
	}
	for i := range d.idle {
		if !d.idle[i].Load() {
			return false
		}
	}
	return d.activity.Load() == e1
}

// asyncTransport moves one flushed frame from src to dst. Send is
// synchronous with respect to batch: implementations must finish reading the
// slice before returning, so the caller can reuse the buffer. seq is the
// sender's flush sequence number — the async analogue of the superstep for
// fault schedules and retry accounting. Delivery and acknowledgement happen
// through the hooks the transport was built with, possibly after Send
// returns (the TCP transport acks from its reader goroutines).
type asyncTransport[M any] interface {
	Send(ctx context.Context, src, dst, seq int, batch []Envelope[M]) error
	Close() error
}

// asyncHooks are the attempt-side callbacks a transport delivers through.
type asyncHooks[M any] struct {
	deliver func(dst int, batch []Envelope[M])
	ack     func(src int)
	fatal   func(err error)
}

// newAsyncTransport mirrors newExchangeFromFactory for the async plane: nil
// is the in-process transport, tcpFactory builds the loopback mesh with
// per-conn reader goroutines, and the fault factories wrap any inner
// transport while sharing the same schedule state as their strict
// counterparts (keyed by frame seq instead of superstep).
func newAsyncTransport[M any](ctx context.Context, f ExchangeFactory, workers int, cfg *Config, h asyncHooks[M]) (asyncTransport[M], error) {
	switch ff := f.(type) {
	case nil:
		return localAsyncTransport[M]{h: h}, nil
	case tcpFactory:
		compress := cfg.CompressFrames && messageIsWire[M]()
		return newTCPAsyncTransport[M](ctx, workers, ff.cfg.withDefaults(), cfg.Observer, h, compress)
	case faultyFactory:
		inner, err := newAsyncTransport[M](ctx, ff.inner, workers, cfg, h)
		if err != nil {
			return nil, err
		}
		return &faultyAsyncTransport[M]{inner: inner, fc: ff.fc, state: ff.state}, nil
	case *ScheduledFaultFactory:
		inner, err := newAsyncTransport[M](ctx, ff.inner, workers, cfg, h)
		if err != nil {
			return nil, err
		}
		return &scheduledAsyncTransport[M]{inner: inner, state: ff.state}, nil
	default:
		return nil, fmt.Errorf("bsp: unknown exchange factory %q", f.kind())
	}
}

// localAsyncTransport delivers in-process: enqueue, then ack, synchronously.
type localAsyncTransport[M any] struct{ h asyncHooks[M] }

func (t localAsyncTransport[M]) Send(_ context.Context, src, dst, _ int, batch []Envelope[M]) error {
	t.h.deliver(dst, batch)
	t.h.ack(src)
	return nil
}

func (t localAsyncTransport[M]) Close() error { return nil }

// faultyAsyncTransport applies the probabilistic injector to each frame,
// drawing from the same shared stream as the strict wrapper so a factory's
// fault budget spans both modes and survives transport rebuilds.
type faultyAsyncTransport[M any] struct {
	inner asyncTransport[M]
	fc    FaultConfig
	state *faultyState
}

func (f *faultyAsyncTransport[M]) Send(ctx context.Context, src, dst, seq int, batch []Envelope[M]) error {
	fault, delay := f.state.draw(f.fc, seq)
	if fault != nil {
		return fault
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
	return f.inner.Send(ctx, src, dst, seq, batch)
}

func (f *faultyAsyncTransport[M]) Close() error { return f.inner.Close() }

// scheduledAsyncTransport fires step-targeted faults against frame sequence
// numbers: a StepFault scheduled at step S claims the first Send carrying
// seq S, exactly once, sharing the fired bookkeeping with the strict wrapper
// so rebuilt transports continue the schedule.
type scheduledAsyncTransport[M any] struct {
	inner asyncTransport[M]
	state *scheduleState
}

func (s *scheduledAsyncTransport[M]) Send(ctx context.Context, src, dst, seq int, batch []Envelope[M]) error {
	if f, ok := s.state.next(seq); ok {
		if err := asyncScheduledFaultError(f, seq); err != nil {
			return err
		}
		if f.Kind == StepFaultDelay {
			timer := time.NewTimer(f.Delay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		}
	}
	return s.inner.Send(ctx, src, dst, seq, batch)
}

func (s *scheduledAsyncTransport[M]) Close() error { return s.inner.Close() }

// asyncWorker is one worker's queue and delta accumulators. Everything here
// is guarded by mu; the deltas are merged into RunStats (and reset) at
// quiescence epochs so checkpoint rollback keeps them exactly-once.
type asyncWorker[M any] struct {
	id   int
	mu   sync.Mutex
	cond *sync.Cond

	queue  []Envelope[M]
	paused bool

	// flushSeq counts every frame this worker flushed, self-deliveries
	// included — the runaway bound. sendSeq numbers only the frames that hit
	// the transport: the fault-schedule and retry-accounting axis, so a
	// StepFault at step S targets the worker's S-th *wire* frame and
	// schedules written against low steps fire regardless of how many
	// self-flushes preceded them. Both are touched only by the worker's own
	// goroutine. flushSeq is int64 so the runaway bound comparison stays
	// exact on 32-bit platforms.
	flushSeq int64
	sendSeq  int

	procTime  time.Duration
	processed int64
	produced  int64
	// counters holds the worker's counter tallies since the last merge,
	// folded in from its context at the end of every burst.
	counters []int64
}

// asyncAttempt is one incarnation of the async plane: fresh queues, fresh
// detector, fresh transport. Recovery discards the whole attempt and builds
// a new one from the latest snapshot, so late deliveries from a dying
// transport can only touch the dead attempt's queues.
type asyncAttempt[M any] struct {
	cfg        *Config
	prog       Program[M]
	snapper    Snapshotter
	k          int
	flushEvery int
	maxFrames  int64
	seeded     bool

	stats    *RunStats
	abortPtr *atomic.Pointer[error]
	det      *creditDetector
	workers  []*asyncWorker[M]

	transport asyncTransport[M]
	runCtx    context.Context
	done      <-chan struct{}

	nudge chan struct{}
	fatal chan error
	halt  atomic.Bool
	pause atomic.Bool
	wg    sync.WaitGroup

	// epochNum is the logical "step" workers stamp on their contexts: 0 is
	// Init, and each checkpoint pause opens a new epoch. Per-epoch stat rows
	// keep SimulatedMakespan meaningful (one row per quiescence interval).
	epochNum    atomic.Int64
	ackedFrames atomic.Int64
	lastCkAck   int64 // coordinator-only
}

func newAsyncAttempt[M any](cfg *Config, prog Program[M], stats *RunStats, abortPtr *atomic.Pointer[error], queues [][]Envelope[M], seeded bool, maxSteps int) *asyncAttempt[M] {
	k := cfg.Workers
	fe := cfg.AsyncFlushEvery
	if fe <= 0 {
		fe = defaultAsyncFlushEvery
	}
	// Clamp and multiply in int64: the untyped 1<<40 constant (and the
	// product) would overflow int on 32-bit platforms.
	maxFrames := int64(maxSteps)
	if maxFrames > 1<<40 {
		maxFrames = 1 << 40
	}
	maxFrames *= asyncFramesPerStep
	snapper, _ := any(prog).(Snapshotter)
	a := &asyncAttempt[M]{
		cfg:        cfg,
		prog:       prog,
		snapper:    snapper,
		k:          k,
		flushEvery: fe,
		maxFrames:  maxFrames,
		seeded:     seeded,
		stats:      stats,
		abortPtr:   abortPtr,
		det:        newCreditDetector(k),
		workers:    make([]*asyncWorker[M], k),
		nudge:      make(chan struct{}, 1),
		fatal:      make(chan error, 8),
	}
	a.epochNum.Store(int64(stats.Supersteps) + 1)
	for w := 0; w < k; w++ {
		wk := &asyncWorker[M]{id: w, counters: newTally(cfg)}
		wk.cond = sync.NewCond(&wk.mu)
		if queues != nil && w < len(queues) {
			wk.queue = append([]Envelope[M](nil), queues[w]...)
		}
		a.workers[w] = wk
	}
	return a
}

func (a *asyncAttempt[M]) hooks() asyncHooks[M] {
	return asyncHooks[M]{deliver: a.deliver, ack: a.ack, fatal: a.fatalErr}
}

// deliver appends a received frame to dst's queue. Ordering is load-bearing:
// append, clear the idle flag, and bump the activity epoch all under the
// queue lock, so the detector can never observe an idle worker with a
// non-empty queue.
func (a *asyncAttempt[M]) deliver(dst int, batch []Envelope[M]) {
	if a.halt.Load() {
		// The attempt is tearing down; the frame is covered by the snapshot
		// (or full restart) the recovery path restores from.
		return
	}
	wk := a.workers[dst]
	wk.mu.Lock()
	busy := !a.det.idle[dst].Load() && len(wk.queue) > 0
	wk.queue = append(wk.queue, batch...)
	a.det.enqueued(dst)
	wk.cond.Signal()
	wk.mu.Unlock()
	if busy {
		// The destination was already working through a backlog when this
		// frame landed: expansion is overlapping communication.
		a.cfg.Observer.AddEarlyExpansion()
	}
}

// ack releases src's credit once a frame it sent has been enqueued at its
// destination. Transports must call it strictly after deliver for the same
// frame — that ordering is what makes zero outstanding credit mean "every
// sent frame is in a queue". The nudge is unconditional: over the TCP
// transport acks arrive from reader goroutines, so the final ack — the one
// that brings outstanding credit to zero — can land after the destination
// worker's idle-nudge was already consumed, and without a fresh nudge here
// the coordinator would block on the nudge channel with the plane fully
// quiescent.
func (a *asyncAttempt[M]) ack(src int) {
	a.det.frameAcked(src)
	a.ackedFrames.Add(1)
	a.nudgeCoordinator()
}

func (a *asyncAttempt[M]) ckEvery() int {
	if a.cfg.CheckpointEvery <= 0 {
		return 0
	}
	return a.cfg.CheckpointEvery * a.k
}

func (a *asyncAttempt[M]) nudgeCoordinator() {
	select {
	case a.nudge <- struct{}{}:
	default:
	}
}

func (a *asyncAttempt[M]) fatalErr(err error) {
	select {
	case a.fatal <- err:
	default:
	}
}

func (a *asyncAttempt[M]) buildTransport(ctx context.Context) error {
	t, err := newAsyncTransport[M](ctx, a.cfg.Exchange, a.k, a.cfg, a.hooks())
	if err != nil {
		return err
	}
	a.transport = t
	return nil
}

// runAttempt drives one attempt to a terminal condition: quiescence (nil),
// abort, cancellation, or a fatal transport error (recoverable by the outer
// loop). Workers are always joined and the transport closed before it
// returns, and the final delta merge keeps RunStats consistent either way.
func (a *asyncAttempt[M]) runAttempt(ctx context.Context) error {
	a.runCtx = ctx
	a.done = ctx.Done()
	for w := 0; w < a.k; w++ {
		a.wg.Add(1)
		go a.workerLoop(w)
	}
	err := a.coordinate(ctx)
	a.haltAll()
	a.wg.Wait()
	a.transport.Close()
	a.mergeDeltas()
	return err
}

func (a *asyncAttempt[M]) coordinate(ctx context.Context) error {
	for {
		if p := a.abortPtr.Load(); p != nil {
			a.cfg.Observer.Aborted(int(a.epochNum.Load()), *p)
			return fmt.Errorf("%w: %v", ErrAborted, *p)
		}
		a.cfg.Observer.AddCreditRound()
		if a.det.quiescent() {
			return nil
		}
		if ck := a.ckEvery(); ck > 0 && a.ackedFrames.Load()-a.lastCkAck >= int64(ck) {
			if err := a.checkpointPause(ctx); err != nil {
				return err
			}
			continue
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("bsp: run canceled at step %d: %w", int(a.epochNum.Load()), ctx.Err())
		case err := <-a.fatal:
			return err
		case <-a.nudge:
		}
	}
}

// checkpointPause quiesces the plane and snapshots it: workers flush partial
// batches and park, in-flight credit drains to zero, the queues plus merged
// stats plus program state are sealed into the checkpoint store, and the
// plane resumes. This is the async analogue of the strict barrier snapshot —
// an induced quiescence point instead of a superstep boundary.
func (a *asyncAttempt[M]) checkpointPause(ctx context.Context) error {
	a.pause.Store(true)
	a.broadcastAll()
	for !(a.allPaused() && a.det.outstandingTotal() == 0) {
		if a.abortPtr.Load() != nil {
			// Resume and let the coordinator turn the abort into ErrAborted.
			a.resumeAll()
			return nil
		}
		select {
		case <-ctx.Done():
			a.resumeAll()
			return fmt.Errorf("bsp: run canceled at step %d: %w", int(a.epochNum.Load()), ctx.Err())
		case err := <-a.fatal:
			a.resumeAll()
			return err
		case <-a.nudge:
		}
	}
	a.mergeDeltas()
	inboxes := make([][]Envelope[M], a.k)
	for w, wk := range a.workers {
		wk.mu.Lock()
		inboxes[w] = append([]Envelope[M](nil), wk.queue...)
		wk.mu.Unlock()
	}
	ckStart := time.Now()
	nbytes, err := saveSnapshot[M](a.cfg.CheckpointStore, a.stats.Supersteps, flatInboxes(inboxes), a.stats, a.snapper)
	if err != nil {
		a.resumeAll()
		return fmt.Errorf("bsp: checkpoint at quiescence point %d: %w", a.stats.Supersteps, err)
	}
	a.cfg.Observer.CheckpointSaved(a.stats.Supersteps, nbytes, time.Since(ckStart))
	a.lastCkAck = a.ackedFrames.Load()
	a.epochNum.Add(1)
	a.resumeAll()
	return nil
}

func (a *asyncAttempt[M]) allPaused() bool {
	for _, wk := range a.workers {
		wk.mu.Lock()
		p := wk.paused
		wk.mu.Unlock()
		if !p {
			return false
		}
	}
	return true
}

func (a *asyncAttempt[M]) broadcastAll() {
	for _, wk := range a.workers {
		wk.mu.Lock()
		wk.cond.Broadcast()
		wk.mu.Unlock()
	}
}

func (a *asyncAttempt[M]) haltAll() {
	a.halt.Store(true)
	a.broadcastAll()
}

func (a *asyncAttempt[M]) resumeAll() {
	a.pause.Store(false)
	a.broadcastAll()
}

// mergeDeltas folds every worker's accumulated deltas into RunStats as one
// epoch row and resets them. Called at checkpoint pauses (workers parked)
// and at attempt teardown (workers joined); both give the coordinator the
// lock-ordered visibility it needs.
func (a *asyncAttempt[M]) mergeDeltas() {
	row := make([]time.Duration, a.k)
	var produced, processed int64
	dirty := false
	for w, wk := range a.workers {
		wk.mu.Lock()
		row[w] = wk.procTime
		if wk.procTime != 0 || wk.processed != 0 || wk.produced != 0 || anyNonzero(wk.counters) {
			dirty = true
		}
		a.stats.WorkerTime[w] += wk.procTime
		a.stats.WorkerMessages[w] += wk.processed
		produced += wk.produced
		processed += wk.processed
		foldCounters(a.stats.Counters, a.cfg, wk.counters)
		wk.procTime, wk.processed, wk.produced = 0, 0, 0
		wk.mu.Unlock()
	}
	if !dirty {
		return
	}
	epoch := int(a.epochNum.Load())
	a.stats.PerStepWorkerTime = append(a.stats.PerStepWorkerTime, row)
	a.stats.PerStepMessages = append(a.stats.PerStepMessages, produced)
	a.stats.MessagesTotal += produced
	a.stats.Supersteps++
	a.cfg.Observer.StepComputed(epoch, row, processed, produced)
}

// noteBurst moves the context's per-burst tallies into the worker's guarded
// deltas.
func (a *asyncAttempt[M]) noteBurst(wk *asyncWorker[M], wctx *Context[M], dt time.Duration, processed int64) {
	wk.mu.Lock()
	wk.procTime += dt
	wk.processed += processed
	wk.produced += wctx.sent
	for id, v := range wctx.counters {
		if v != 0 {
			wk.counters[id] += v
			wctx.counters[id] = 0
		}
	}
	wk.mu.Unlock()
	wctx.sent = 0
}

func anyNonzero(tally []int64) bool {
	for _, v := range tally {
		if v != 0 {
			return true
		}
	}
	return false
}

func outDirty[M any](wctx *Context[M]) bool {
	for _, b := range wctx.out {
		if len(b) > 0 {
			return true
		}
	}
	return false
}

// parkUntilHalt parks a worker that can make no further progress (abort,
// cancellation, or a fatal flush) until the coordinator tears the attempt
// down, so its deltas stay mergeable.
func (a *asyncAttempt[M]) parkUntilHalt(wk *asyncWorker[M]) {
	wk.mu.Lock()
	for !a.halt.Load() {
		wk.cond.Wait()
	}
	wk.mu.Unlock()
}

// bumpSeq advances the worker's flush sequence and enforces the runaway
// bound.
func (a *asyncAttempt[M]) bumpSeq(wk *asyncWorker[M]) bool {
	wk.flushSeq++
	if wk.flushSeq > a.maxFrames {
		a.fatalErr(fmt.Errorf("bsp: worker %d exceeded %d flushed frames (runaway async program; raise MaxSupersteps)", wk.id, a.maxFrames))
		return false
	}
	return true
}

// flushOut ships the context's buffered batches: the self batch straight
// into the worker's own queue (no transport, no credit — the worker re-checks
// its queue before idling), remote batches through the transport under the
// retry policy, each charged to the credit ledger before the send. With
// all=false only batches that reached flushEvery go out; all=true drains
// everything (pre-idle, pre-pause, post-Init).
func (a *asyncAttempt[M]) flushOut(wk *asyncWorker[M], wctx *Context[M], all bool) bool {
	w := wk.id
	if len(wctx.out[w]) > 0 && (all || len(wctx.out[w]) >= a.flushEvery) {
		if !a.bumpSeq(wk) {
			return false
		}
		wk.mu.Lock()
		wk.queue = append(wk.queue, wctx.out[w]...)
		wk.mu.Unlock()
		wctx.out[w] = wctx.out[w][:0]
	}
	for dst := 0; dst < a.k; dst++ {
		if dst == w || len(wctx.out[dst]) == 0 {
			continue
		}
		if !all && len(wctx.out[dst]) < a.flushEvery {
			continue
		}
		if !a.bumpSeq(wk) {
			return false
		}
		wk.sendSeq++
		seq := wk.sendSeq
		cur := a.det.frameSent(w)
		a.cfg.Observer.ObserveFramesInFlight(cur)
		attempt := 0
		err := withRetry(a.runCtx, a.cfg.Retry, func() error {
			attempt++
			serr := a.transport.Send(a.runCtx, w, dst, seq, wctx.out[dst])
			if serr != nil {
				a.cfg.Observer.ExchangeFailed(seq, attempt, serr)
			}
			return serr
		})
		if err != nil {
			// Leave the credit outstanding: the lost frame must poison
			// quiescence so the coordinator can only exit through the fatal
			// channel, never through a false "all delivered" verdict.
			a.fatalErr(fmt.Errorf("bsp: async exchange: frame %d->%d seq %d: %w", w, dst, seq, err))
			return false
		}
		wctx.out[dst] = wctx.out[dst][:0]
	}
	return true
}

// workerLoop is one worker's life: seed (Init) unless restored, then drain
// the queue in bursts, flushing frames as they fill and expanding frames from
// peers as they arrive — no barrier anywhere.
func (a *asyncAttempt[M]) workerLoop(w int) {
	defer a.wg.Done()
	wk := a.workers[w]
	wctx := &Context[M]{
		worker:   w,
		step:     0,
		cfg:      a.cfg,
		out:      make([][]Envelope[M], a.k),
		counters: newTally(a.cfg),
		aborted:  a.abortPtr,
	}
	if !a.seeded {
		start := time.Now()
		a.prog.Init(wctx)
		a.noteBurst(wk, wctx, time.Since(start), 0)
		if !a.flushOut(wk, wctx, true) {
			a.parkUntilHalt(wk)
			return
		}
	}
	var burst []Envelope[M]
	for {
		wk.mu.Lock()
		for len(wk.queue) == 0 && !a.halt.Load() && !a.pause.Load() && a.abortPtr.Load() == nil {
			if outDirty(wctx) {
				wk.mu.Unlock()
				if !a.flushOut(wk, wctx, true) {
					a.parkUntilHalt(wk)
					return
				}
				wk.mu.Lock()
				continue
			}
			a.det.setIdle(w, true)
			a.nudgeCoordinator()
			wk.cond.Wait()
		}
		switch {
		case a.halt.Load():
			wk.mu.Unlock()
			return
		case a.abortPtr.Load() != nil:
			wk.mu.Unlock()
			a.nudgeCoordinator()
			a.parkUntilHalt(wk)
			return
		case a.pause.Load():
			wk.mu.Unlock()
			if !a.flushOut(wk, wctx, true) {
				a.parkUntilHalt(wk)
				return
			}
			wk.mu.Lock()
			if a.pause.Load() && !a.halt.Load() {
				wk.paused = true
				a.nudgeCoordinator()
				for a.pause.Load() && !a.halt.Load() {
					wk.cond.Wait()
				}
				wk.paused = false
			}
			wk.mu.Unlock()
			continue
		}
		burst, wk.queue = wk.queue, burst[:0]
		wk.mu.Unlock()

		wctx.step = int(a.epochNum.Load())
		start := time.Now()
		var processed int64
		lastFlushSent := wctx.sent
		canceled := false
	burstLoop:
		for i := range burst {
			if a.abortPtr.Load() != nil || a.halt.Load() {
				break
			}
			if i&255 == 0 {
				select {
				case <-a.done:
					canceled = true
					break burstLoop
				default:
				}
			}
			a.prog.Process(wctx, burst[i])
			processed++
			if wctx.sent-lastFlushSent >= int64(a.flushEvery) {
				if !a.flushOut(wk, wctx, false) {
					a.noteBurst(wk, wctx, time.Since(start), processed)
					a.parkUntilHalt(wk)
					return
				}
				lastFlushSent = wctx.sent
			}
		}
		a.noteBurst(wk, wctx, time.Since(start), processed)
		if canceled {
			a.nudgeCoordinator()
			a.parkUntilHalt(wk)
			return
		}
	}
}

// runAsync is the async-mode body of RunContext: it owns the
// attempt/recover loop the way the strict path owns its superstep loop.
func runAsync[M any](ctx context.Context, cfg Config, prog Program[M], maxSteps int) (rstats *RunStats, rerr error) {
	k := cfg.Workers
	newStats := func() *RunStats {
		return &RunStats{
			WorkerTime:     make([]time.Duration, k),
			WorkerMessages: make([]int64, k),
			Counters:       map[string]int64{},
		}
	}
	stats := newStats()
	snapper, _ := any(prog).(Snapshotter)
	var abortPtr atomic.Pointer[error]
	var queues [][]Envelope[M]
	seeded := false
	startStep := 0

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
		// A strict compressed run's snapshot keeps its inboxes grouped;
		// rehydrate them into the async plane's flat queue form.
		rows, err := snap.flatRows(k)
		if err != nil {
			return err
		}
		queues = rows
		if snapper != nil {
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
			seeded = true
			startStep = snap.Step
			cfg.Observer.Resumed(startStep, time.Since(resumeStart))
		}
	}

	cfg.Observer.RunStarted(k, startStep)
	defer func() {
		if rstats != nil {
			cfg.Observer.RunEnded(rstats.Supersteps, rstats.MessagesTotal, rstats.Counters,
				rstats.WorkerTime, rstats.WorkerMessages, rerr)
		}
	}()

	for {
		a := newAsyncAttempt[M](&cfg, prog, stats, &abortPtr, queues, seeded, maxSteps)
		if err := a.buildTransport(ctx); err != nil {
			return stats, fmt.Errorf("bsp: async exchange setup: %w", err)
		}
		err := a.runAttempt(ctx)
		if err == nil {
			return stats, nil
		}
		if errors.Is(err, ErrAborted) {
			return stats, err
		}
		if ctx.Err() != nil || cfg.CheckpointStore == nil || stats.Recoveries >= cfg.MaxRecoveries {
			return stats, err
		}
		stats.Recoveries++
		cfg.Observer.RecoveryStarted(stats.Supersteps, err)
		restoreStart := time.Now()
		snap, lerr := loadSnapshot[M](cfg.CheckpointStore)
		switch {
		case errors.Is(lerr, ErrNoCheckpoint):
			// No quiescence snapshot yet: restart from scratch, resetting
			// program-side state with the engine's.
			recoveries := stats.Recoveries
			stats = newStats()
			stats.Recoveries = recoveries
			queues, seeded = nil, false
			if snapper != nil {
				if serr := snapper.RestoreState(nil); serr != nil {
					return stats, fmt.Errorf("bsp: resetting program state: %v (original failure: %w)", serr, err)
				}
			}
			cfg.Observer.RestartedFromScratch(stats.Supersteps)
		case lerr != nil:
			return stats, fmt.Errorf("bsp: loading checkpoint: %v (original failure: %w)", lerr, err)
		default:
			if rerr := restore(snap); rerr != nil {
				return stats, rerr
			}
			seeded = true
			cfg.Observer.CheckpointRestored(snap.Step, time.Since(restoreStart))
		}
	}
}
