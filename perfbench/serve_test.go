package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"psgl/internal/gen"
	"psgl/internal/graph"
)

// TestMixUpdatesCommute checks the property the final fingerprint check
// rests on: every batch changes every edge it names, and batches touch
// disjoint pairs, so applying them in any order gives the same graph.
func TestMixUpdatesCommute(t *testing.T) {
	base := gen.ChungLu(500, 2000, 1.8, 3)
	m := newMixGen(3, base)
	ops, err := m.ops(90)
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	for _, o := range ops {
		if o.Kind == "update" {
			updates++
			var body map[string][][2]int
			if err := json.Unmarshal(o.Body, &body); err != nil || len(body["add"]) != batchAdds || len(body["remove"]) != batchRemoves {
				t.Fatalf("update body %s: %v", o.Body, err)
			}
		}
	}
	if updates != 30 || len(m.batches) != 30 {
		t.Fatalf("%d updates, %d batches in 90 requests, want 30", updates, len(m.batches))
	}
	apply := func(order []int) *graph.Overlay {
		ov := graph.NewOverlay(base)
		for _, i := range order {
			res, err := ov.ApplyBatch(m.batches[i])
			if err != nil || len(res.Added) != batchAdds || len(res.Removed) != batchRemoves {
				t.Fatalf("batch %d: %v, %+v", i, err, res)
			}
		}
		return ov
	}
	order := rand.New(rand.NewSource(1)).Perm(len(m.batches))
	inOrder := make([]int, len(m.batches))
	for i := range inOrder {
		inOrder[i] = i
	}
	if a, b := apply(inOrder), apply(order); a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("batch order changes the graph: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
}

func TestCheckStream(t *testing.T) {
	line := `{"embedding":[1,2,3,4]}` + "\n"
	ok := strings.Repeat(line, 3) + `{"done":true,"count":3}` + "\n"
	if _, err := checkReply(&op{Kind: "stream"}, &result{Status: http.StatusOK, Body: []byte(ok)}); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	for name, body := range map[string]string{
		"count mismatch": strings.Repeat(line, 2) + `{"done":true,"count":3}`,
		"not injective":  `{"embedding":[1,2,2,4]}` + "\n" + `{"done":true,"count":1}`,
		"error trailer":  line + `{"done":true,"count":1,"error":"boom"}`,
		"no trailer":     line + line,
	} {
		if _, err := checkReply(&op{Kind: "stream"}, &result{Status: http.StatusOK, Body: []byte(body)}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := checkReply(&op{Kind: "count"}, &result{Status: http.StatusTooManyRequests, Body: []byte(`{}`)}); err == nil {
		t.Error("429 accepted")
	}
}
