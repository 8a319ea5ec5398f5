package bsp

// Prefix-compressed wire frames. Gpsis that share a mapped-vertex prefix are
// shipped redundantly by the flat codec (wire.go); "Fast and Robust
// Distributed Subgraph Enumeration" (arXiv:1901.07747) attacks exactly this
// with compressed intermediate results. The compressed frame is a front-coded
// trie walk: messages are sorted by their group encoding, and each envelope
// carries only the byte count it shares with its predecessor plus the
// differing suffix. Decoding is the inverse walk, one message at a time over
// a single scratch buffer, so a frame never materializes more than one full
// encoding at once.
//
// Compressed frame layout (little-endian):
//
//	uint32  payload length (bytes after this field)
//	uint32  flags|step     bit 31 = compressed, bit 30 = continuation,
//	                       bits 0..29 = step
//	uint32  envelope count
//	count × {
//	    varint  dest delta (zigzag, vs previous envelope's dest)
//	    uvarint shared     (bytes shared with previous group encoding; the
//	                        first envelope's shared is always 0)
//	    uvarint suffix length
//	    suffix bytes
//	}
//
// Bit 31 versions the format in place: flat frames keep a plain step word
// (Run's step counter and the async plane's frame ordinals never reach 2^30
// in practice), so a receiver distinguishes the two per frame with no
// negotiation, and a sender is free to fall back to the flat codec whenever
// compression would not pay (see compressMinBatch).
//
// Bit 30 lets the strict barrier split one logical batch into bounded chunks
// — the receiver keeps each chunk encoded until the run loop decodes it
// lazily, which is what bounds peak RSS. The async plane never sets it: its
// credit/ack termination detector counts exactly one ack per transport send,
// so an async send is always exactly one frame.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"psgl/internal/graph"
)

// GroupWireMessage is the optional grouping contract of compressed frames: a
// message type (via its pointer) that offers a second, grouping-friendly
// encoding with its most-shared fields first, plus a patch decode. When *M
// does not implement it, compressed frames fall back to the WireMessage
// encoding and a full decode per message — still correct, just with less
// prefix to share.
type GroupWireMessage interface {
	// AppendGroupWire appends the grouping-friendly encoding to dst and
	// returns the extended buffer. It must be decodable by DecodeGroupWire
	// given the exact encoding slice.
	AppendGroupWire(dst []byte) []byte
	// DecodeGroupWire overwrites the receiver from src, which holds one
	// complete group encoding and nothing else. When shared > 0 the receiver
	// has been pre-seeded with the previously decoded message whose encoding
	// equals src[:shared], so implementations may skip re-parsing the shared
	// prefix. Implementations must not leave the receiver aliasing memory
	// owned by other messages.
	DecodeGroupWire(src []byte, shared int) error
}

// messageIsGroupWire reports whether *M implements GroupWireMessage.
func messageIsGroupWire[M any]() bool {
	_, ok := any((*M)(nil)).(GroupWireMessage)
	return ok
}

const (
	// compressedFrameFlag marks a frame's step word as the compressed format.
	compressedFrameFlag = 1 << 31
	// continuationFlag marks a strict-mode chunk with more chunks following
	// for the same (src, dst) barrier batch.
	continuationFlag = 1 << 30
	// compressedStepMask extracts the step from a compressed step word.
	compressedStepMask = continuationFlag - 1

	// compressMinBatch is the smallest batch worth front coding; below it the
	// varint overhead beats the sharing and the sender emits a flat frame.
	compressMinBatch = 4
	// compressedChunk bounds the envelopes per strict-mode chunk, which in
	// turn bounds the run loop's lazy-decode scratch (the peak-RSS lever).
	compressedChunk = 512
)

// groupEnc is the pooled encoder scratch: every message's group encoding laid
// end to end, plus the sort permutation that turns the batch into maximal
// prefix runs.
type groupEnc struct {
	msgs  []byte
	offs  []int
	order []int
}

var groupEncPool = sync.Pool{New: func() any { return new(groupEnc) }}

func (ge *groupEnc) enc(i int) []byte { return ge.msgs[ge.offs[i]:ge.offs[i+1]] }

// appendGroupEncoding appends m's group encoding (or its flat WireMessage
// encoding when *M is not a GroupWireMessage).
func appendGroupEncoding[M any](dst []byte, m *M) []byte {
	if gm, ok := any(m).(GroupWireMessage); ok {
		return gm.AppendGroupWire(dst)
	}
	return any(m).(WireMessage).AppendWire(dst)
}

// newGroupEnc encodes every message in batch and computes the emission order:
// sorted by encoding bytes (ties by dest), which both maximizes shared
// prefixes and makes the frame a deterministic function of the batch
// multiset. raw is the flat-equivalent frame size — what the same batch would
// have cost uncompressed — for the compression-ratio counters.
func newGroupEnc[M any](batch []Envelope[M]) (ge *groupEnc, raw int) {
	ge = groupEncPool.Get().(*groupEnc)
	ge.msgs = ge.msgs[:0]
	ge.offs = ge.offs[:0]
	ge.order = ge.order[:0]
	for i := range batch {
		ge.offs = append(ge.offs, len(ge.msgs))
		ge.msgs = appendGroupEncoding(ge.msgs, &batch[i].Msg)
		ge.order = append(ge.order, i)
	}
	ge.offs = append(ge.offs, len(ge.msgs))
	sort.Slice(ge.order, func(a, b int) bool {
		ia, ib := ge.order[a], ge.order[b]
		if c := bytes.Compare(ge.enc(ia), ge.enc(ib)); c != 0 {
			return c < 0
		}
		return batch[ia].Dest < batch[ib].Dest
	})
	return ge, wireFrameHeader + 4*len(batch) + len(ge.msgs)
}

func putGroupEnc(ge *groupEnc) { groupEncPool.Put(ge) }

func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// appendOneCompressedFrame emits envelopes order[lo:hi] as one compressed
// frame (length prefix included), front coded against each other.
func appendOneCompressedFrame[M any](buf []byte, step int, ge *groupEnc, batch []Envelope[M], lo, hi int, more bool) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length, patched below
	word := uint32(step)&compressedStepMask | compressedFrameFlag
	if more {
		word |= continuationFlag
	}
	buf = binary.LittleEndian.AppendUint32(buf, word)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hi-lo))
	var prev []byte
	prevDest := int64(0)
	for i := lo; i < hi; i++ {
		idx := ge.order[i]
		e := ge.enc(idx)
		shared := 0
		if i > lo {
			shared = commonPrefixLen(prev, e)
		}
		d := int64(batch[idx].Dest)
		buf = binary.AppendVarint(buf, d-prevDest)
		prevDest = d
		buf = binary.AppendUvarint(buf, uint64(shared))
		buf = binary.AppendUvarint(buf, uint64(len(e)-shared))
		buf = append(buf, e[shared:]...)
		prev = e
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// appendCompressedFrames encodes batch as compressed frames appended to buf.
// chunk <= 0 emits a single frame (the async plane's one-frame-per-send
// contract); otherwise the batch is split into chunks of at most chunk
// envelopes, all but the last carrying the continuation bit. raw is the
// flat-equivalent byte size of the batch.
func appendCompressedFrames[M any](buf []byte, step int, batch []Envelope[M], chunk int) (out []byte, raw int) {
	ge, raw := newGroupEnc(batch)
	defer putGroupEnc(ge)
	if chunk <= 0 || chunk > len(batch) {
		chunk = len(batch)
	}
	lo := 0
	for {
		hi := lo + chunk
		more := hi < len(batch)
		if !more {
			hi = len(batch)
		}
		buf = appendOneCompressedFrame(buf, step, ge, batch, lo, hi, more)
		if !more {
			return buf, raw
		}
		lo = hi
	}
}

// AppendCompressedFrame encodes batch as a single compressed frame appended
// to buf, length prefix included. Exported for the hot-path microbenchmarks
// and golden fixtures; *M must implement WireMessage.
func AppendCompressedFrame[M any](buf []byte, step int, batch []Envelope[M]) []byte {
	out, _ := appendCompressedFrames(buf, step, batch, 0)
	return out
}

// compressBatch encodes batch into separately allocated compressed frame
// payloads (length prefix stripped), each of at most chunk envelopes — the
// form the grouped inbox retains until the run loop decodes it.
func compressBatch[M any](step int, batch []Envelope[M], chunk int) (frames [][]byte, raw int) {
	ge, raw := newGroupEnc(batch)
	defer putGroupEnc(ge)
	if chunk <= 0 || chunk > len(batch) {
		chunk = len(batch)
	}
	lo := 0
	for {
		hi := lo + chunk
		more := hi < len(batch)
		if !more {
			hi = len(batch)
		}
		f := appendOneCompressedFrame(nil, step, ge, batch, lo, hi, more)
		frames = append(frames, f[4:])
		if !more {
			return frames, raw
		}
		lo = hi
	}
}

// DecodeCompressedFrame decodes a compressed frame payload (everything after
// the length prefix) into a fresh envelope slice, in the encoder's sorted
// order. more reports the continuation bit. Exported for the hot-path
// microbenchmarks and golden fixtures.
func DecodeCompressedFrame[M any](payload []byte) (step int, more bool, batch []Envelope[M], err error) {
	step, more, batch, _, err = decodeCompressedFrame[M](payload)
	return step, more, batch, err
}

// decodeCompressedFrame is DecodeCompressedFrame plus the flat-equivalent
// byte size of the decoded batch, for the compression-ratio counters.
func decodeCompressedFrame[M any](payload []byte) (step int, more bool, batch []Envelope[M], raw int, err error) {
	if len(payload) < wireFrameHeader-4 {
		return 0, false, nil, 0, fmt.Errorf("compressed frame: truncated header (%d bytes)", len(payload))
	}
	word := binary.LittleEndian.Uint32(payload)
	if word&compressedFrameFlag == 0 {
		return 0, false, nil, 0, fmt.Errorf("compressed frame: flag bit unset in step word %#x", word)
	}
	more = word&continuationFlag != 0
	step = int(word & compressedStepMask)
	count := int(binary.LittleEndian.Uint32(payload[4:]))
	rest := payload[8:]
	if count < 0 || count > len(rest) {
		return 0, false, nil, 0, fmt.Errorf("compressed frame: implausible envelope count %d for %d bytes", count, len(rest))
	}
	raw = wireFrameHeader
	if count == 0 {
		if len(rest) != 0 {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: %d trailing bytes", len(rest))
		}
		return step, more, nil, raw, nil
	}
	isGroup := messageIsGroupWire[M]()
	bp := wireBufPool.Get().(*[]byte)
	cur := (*bp)[:0]
	defer func() {
		*bp = cur[:0]
		wireBufPool.Put(bp)
	}()
	batch = make([]Envelope[M], count)
	prevDest := int64(0)
	for i := 0; i < count; i++ {
		dd, n := binary.Varint(rest)
		if n <= 0 {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: bad dest delta", i, count)
		}
		rest = rest[n:]
		sh, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: bad shared length", i, count)
		}
		rest = rest[n:]
		sl, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: bad suffix length", i, count)
		}
		rest = rest[n:]
		if sh > uint64(len(cur)) {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: shared %d exceeds previous encoding (%d bytes)", i, count, sh, len(cur))
		}
		if sl > uint64(len(rest)) {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: truncated suffix (%d claimed, %d left)", i, count, sl, len(rest))
		}
		shared := int(sh)
		cur = append(cur[:shared], rest[:sl]...)
		rest = rest[sl:]
		prevDest += dd
		dest := graph.VertexID(prevDest)
		if int64(dest) != prevDest {
			return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: dest %d out of range", i, count, prevDest)
		}
		batch[i].Dest = dest
		if isGroup {
			if shared > 0 {
				// Seed the patch decode with the previous message: fields
				// fully inside the shared prefix need no re-parse.
				batch[i].Msg = batch[i-1].Msg
			}
			if err := any(&batch[i].Msg).(GroupWireMessage).DecodeGroupWire(cur, shared); err != nil {
				return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: %w", i, count, err)
			}
		} else {
			tail, err := any(&batch[i].Msg).(WireMessage).DecodeWire(cur)
			if err != nil {
				return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: %w", i, count, err)
			}
			if len(tail) != 0 {
				return 0, false, nil, 0, fmt.Errorf("compressed frame: envelope %d/%d: %d undecoded encoding bytes", i, count, len(tail))
			}
		}
		raw += 4 + len(cur)
	}
	if len(rest) != 0 {
		return 0, false, nil, 0, fmt.Errorf("compressed frame: %d trailing bytes", len(rest))
	}
	return step, more, batch, raw, nil
}

// framePayloadIsCompressed reports whether a frame payload carries the
// compressed format, by its step-word flag bit.
func framePayloadIsCompressed(payload []byte) bool {
	return len(payload) >= 4 && binary.LittleEndian.Uint32(payload)&compressedFrameFlag != 0
}

// DecodeFrame decodes a frame payload in either format, detected per frame
// from the step word's flag bit. more is always false for flat frames.
func DecodeFrame[M any](payload []byte) (step int, more bool, batch []Envelope[M], err error) {
	if framePayloadIsCompressed(payload) {
		return DecodeCompressedFrame[M](payload)
	}
	step, batch, err = DecodeWireFrame[M](payload)
	return step, false, batch, err
}

// Inbox is one worker's delivered messages for a superstep: flat envelopes
// plus — in compressed mode — still-encoded compressed frame payloads that
// the run loop decodes lazily, one bounded chunk at a time, so a dense
// superstep's inbox costs its compressed size rather than its expanded size.
type Inbox[M any] struct {
	Envs   []Envelope[M]
	Frames [][]byte
}

// flatInboxes wraps plain per-worker envelope slices as Inboxes.
func flatInboxes[M any](rows [][]Envelope[M]) []Inbox[M] {
	res := make([]Inbox[M], len(rows))
	for i, envs := range rows {
		res[i].Envs = envs
	}
	return res
}

// deliverInbox drives one worker's superstep over a grouped inbox: flat
// envelopes first, then each compressed frame decoded lazily — one bounded
// chunk at a time, through a pooled scratch — and delivered whole to a
// GroupProgram (per message otherwise). The compressed_* counters it feeds
// are logical: they ride RunStats, which rolls back with barrier snapshots,
// so they stay bit-identical across clean, recovered, and resumed strict
// runs. Returns the number of messages processed.
func deliverInbox[M any](ctx *Context[M], prog Program[M], gprog GroupProgram[M], ib *Inbox[M], abortPtr *atomic.Pointer[error], done <-chan struct{}) int64 {
	processed := int64(0)
	for i, env := range ib.Envs {
		// An abort (or cancellation) short-circuits the rest of this
		// worker's inbox instead of draining it.
		if abortPtr.Load() != nil {
			return processed
		}
		if i&255 == 0 {
			select {
			case <-done:
				return processed
			default:
			}
		}
		prog.Process(ctx, env)
		processed++
	}
	for _, fp := range ib.Frames {
		if abortPtr.Load() != nil {
			return processed
		}
		select {
		case <-done:
			return processed
		default:
		}
		_, _, batch, raw, err := decodeCompressedFrame[M](fp)
		if err != nil {
			// Frames come from our own encoder or a CRC-verified snapshot;
			// one that fails to decode is unrecoverable state damage.
			ctx.Abort(fmt.Errorf("corrupt compressed inbox frame: %w", err))
			return processed
		}
		ctx.addBuiltin(ctrCompressedFrames, 1)
		ctx.addBuiltin(ctrCompressedWireBytes, int64(4+len(fp)))
		ctx.addBuiltin(ctrCompressedRawBytes, int64(raw))
		if gprog != nil {
			gprog.ProcessGroup(ctx, batch)
			processed += int64(len(batch))
			continue
		}
		for _, env := range batch {
			if abortPtr.Load() != nil {
				return processed
			}
			prog.Process(ctx, env)
			processed++
		}
	}
	return processed
}

// GroupProgram is an optional Program extension for compressed mode: each
// decoded compressed frame is delivered whole, in the encoder's prefix-sorted
// order, so the program can share expansion work across runs of messages with
// a common prefix (the engine's group expansion). Programs without it get the
// usual per-message Process calls. Results must not depend on the grouping —
// only on the delivered multiset — which the differential suites pin.
type GroupProgram[M any] interface {
	Program[M]
	ProcessGroup(ctx *Context[M], batch []Envelope[M])
}

// groupedExchange is the optional exchange extension compressed mode runs on:
// like Exchange, but the result keeps compressed batches encoded.
type groupedExchange[M any] interface {
	ExchangeGrouped(ctx context.Context, step int, outAll [][][]Envelope[M]) ([]Inbox[M], error)
}

// exchangeGrouped dispatches a grouped barrier to ex, falling back to the
// flat Exchange (wrapped envelope-only Inboxes) for exchanges that don't
// support grouping. Fault-injection wrappers forward through this helper, so
// arbitrary wrapper nesting reaches a grouped inner exchange.
func exchangeGrouped[M any](ctx context.Context, ex Exchange[M], step int, outAll [][][]Envelope[M]) ([]Inbox[M], error) {
	if g, ok := ex.(groupedExchange[M]); ok {
		return g.ExchangeGrouped(ctx, step, outAll)
	}
	flat, err := ex.Exchange(ctx, step, outAll)
	if err != nil {
		return nil, err
	}
	return flatInboxes(flat), nil
}

// compressedLocalExchange is the in-process exchange of compressed mode: each
// (src, dst) batch of at least compressMinBatch envelopes is front coded into
// bounded chunks that stay encoded in the inbox (trading barrier CPU for peak
// RSS); smaller batches pass through flat.
type compressedLocalExchange[M any] struct{}

func (compressedLocalExchange[M]) Exchange(ctx context.Context, step int, outAll [][][]Envelope[M]) ([][]Envelope[M], error) {
	return localExchange[M]{}.Exchange(ctx, step, outAll)
}

func (compressedLocalExchange[M]) ExchangeGrouped(_ context.Context, step int, outAll [][][]Envelope[M]) ([]Inbox[M], error) {
	k := len(outAll)
	res := make([]Inbox[M], k)
	var wg sync.WaitGroup
	for dst := 0; dst < k; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			for src := 0; src < k; src++ {
				batch := outAll[src][dst]
				if len(batch) == 0 {
					continue
				}
				if len(batch) < compressMinBatch {
					res[dst].Envs = append(res[dst].Envs, batch...)
					continue
				}
				frames, _ := compressBatch(step, batch, compressedChunk)
				res[dst].Frames = append(res[dst].Frames, frames...)
			}
		}(dst)
	}
	wg.Wait()
	return res, nil
}

func (compressedLocalExchange[M]) Close() error { return nil }
