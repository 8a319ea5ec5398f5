package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one job or one request share a Trace id; Parent is the id of the
// span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run calls the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span that ran from start to end and returns its id.
func (t *tracer) add(trace, layer, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// timed runs fn inside a span and returns its id. fn receives the span's id
// so that it can parent the spans of the calls it makes.
func (t *tracer) timed(trace, layer, name string, parent int, fn func(id int)) int {
	if t == nil {
		fn(0)
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name})
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].Start = int64(start.Sub(t.t0))
	t.spans[id-1].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
	return id
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// traceFile is the document a traced run writes.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfS    map[string]float64 `json:"self_s"`
	Calls    map[string]int     `json:"calls"`
	Spans    []span             `json:"spans"`
}

// write saves every span, with the self time per layer and the number of
// spans per call name, as JSON to path.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := traceFile{Workload: workload, Seed: seed, SelfS: map[string]float64{}, Calls: map[string]int{}, Spans: spans}
	for layer, d := range selfTimes(spans) {
		doc.SelfS[layer] = d.Seconds()
	}
	for _, s := range spans {
		doc.Calls[s.Layer+" "+s.Name]++
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
