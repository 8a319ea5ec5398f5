package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTimeUnderStall stalls the server's first reply.
// On one connection the requests due behind it wait, and that wait is part
// of their latency: an open loop times each request from when it was due,
// not from when a connection was free to send it.
func TestOpenLoopTimesFromDueTimeUnderStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newClient(1, 5*time.Second)
	defer c.CloseIdleConnections()

	ops := make([]op, 4)
	for i := range ops {
		ops[i] = op{Kind: "count", Path: "/", Due: time.Duration(i) * 50 * time.Millisecond}
	}
	res := openLoop(context.Background(), c, srv.URL, ops, time.Now(), nil)
	for i, r := range res {
		if r.Err != nil || r.Status != http.StatusOK {
			t.Fatalf("request %d: %v, status %d", i, r.Err, r.Status)
		}
		// Request i was due at 50i ms and could not complete before the
		// stalled first reply at 300 ms.
		if min := ms(stall - ops[i].Due - 20*time.Millisecond); r.Latency < min {
			t.Errorf("request %d latency %.1fms, want >= %.1fms", i, r.Latency, min)
		}
		if r.lag() > 50 {
			t.Errorf("request %d sent %.1fms late; the generator must not wait for replies", i, r.lag())
		}
	}
}

func TestClosedLoopWaitsForReplies(t *testing.T) {
	var inflight, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inflight.Add(1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		inflight.Add(-1)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newClient(2, 5*time.Second)
	defer c.CloseIdleConnections()
	ops := make([]op, 20)
	for i := range ops {
		ops[i] = op{Kind: "count", Path: "/"}
	}
	res, _ := closedLoop(context.Background(), c, srv.URL, ops, 2, time.Now(), nil)
	for i, r := range res {
		if r.Err != nil || r.Status != http.StatusOK {
			t.Fatalf("request %d: %v, status %d", i, r.Err, r.Status)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d requests in flight at once, want at most 2", p)
	}
}
