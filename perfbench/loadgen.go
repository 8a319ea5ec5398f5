package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// op is one HTTP request of a serving workload: a read (GET /query) or a
// write (POST /update). Due is its send time as an offset from the start of
// its phase; closed-loop phases ignore it.
type op struct {
	Kind    string // "count", "stream", "census" or "update"
	Pattern string // read pattern in the server's DSL; empty for updates
	Path    string // request path and query string
	Body    []byte // POST body; nil for reads
	Due     time.Duration
	// Expected effect of an update batch: every edge in it changes the
	// graph, because batches touch pairwise disjoint vertex pairs.
	Adds, Removes int
}

func (o *op) isRead() bool { return o.Kind != "update" }

// result is what one op produced, timed against the phase start.
type result struct {
	Due   time.Duration // when the op was due (open loop) or issued (closed loop)
	Start time.Duration // when the generator issued it
	End   time.Duration // when the last byte of the reply arrived
	// Latency is End-Due: the wait a late or stalled server imposes on
	// later requests counts against them. A failed op has failed latency.
	Latency float64 // ms
	Status  int
	Body    []byte
	Err     error
}

// lag is how late the generator issued the op, in ms.
func (r *result) lag() float64 { return ms(r.Start - r.Due) }

// newClient returns an HTTP client that keeps at most conns connections
// open to the server: requests beyond that wait in the client for a free
// connection, and that wait counts in their latency.
func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends one op and reads its whole reply; the returned result has its
// Start and End set relative to t0.
func do(ctx context.Context, c *http.Client, base string, o *op, t0 time.Time) result {
	var res result
	res.Start = time.Since(t0)
	method := http.MethodGet
	var body io.Reader
	if o.Body != nil {
		method = http.MethodPost
		body = bytes.NewReader(o.Body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+o.Path, body)
	if err == nil {
		var resp *http.Response
		resp, err = c.Do(req)
		if err == nil {
			res.Status = resp.StatusCode
			res.Body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	res.End = time.Since(t0)
	res.Err = err
	return res
}

// openLoop sends every op at t0 plus its due time, whether or not earlier
// replies have arrived, and times each from its due time to its last byte.
// ops must be sorted by Due. before, when non-nil, runs just before an op is
// sent, on the op's own goroutine.
func openLoop(ctx context.Context, c *http.Client, base string, ops []op, t0 time.Time, before func(*op)) []result {
	out := make([]result, len(ops))
	var wg sync.WaitGroup
	for i := range ops {
		if d := time.Until(t0.Add(ops[i].Due)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if before != nil {
				before(&ops[i])
			}
			r := do(ctx, c, base, &ops[i], t0)
			r.Due = ops[i].Due
			r.Latency = ms(r.End - r.Due)
			out[i] = r
		}(i)
	}
	wg.Wait()
	return out
}

// closedLoop runs ops over clients concurrent callers, each sending its next
// op as soon as the previous reply is complete, and returns the results in
// op order, timed from t0, with the wall time the phase took. before is as
// for openLoop.
func closedLoop(ctx context.Context, c *http.Client, base string, ops []op, clients int, t0 time.Time, before func(*op)) ([]result, time.Duration) {
	out := make([]result, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if before != nil {
					before(&ops[i])
				}
				r := do(ctx, c, base, &ops[i], t0)
				r.Due = r.Start
				r.Latency = ms(r.End - r.Due)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}
