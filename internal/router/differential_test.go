package router

import (
	"bytes"
	"net/http"
	"testing"
)

// wallClockFree drops the fields a replica cannot reproduce across runs:
// measured wall times differ between processes even on identical work.
// Everything else in a record — counters, I/O totals, derived ratios,
// the estimated (model-based) I/O time — is deterministic.
func wallClockFree(rec map[string]any) map[string]any {
	out := make(map[string]any, len(rec))
	for k, v := range rec {
		if k != "restructure_ms" && k != "compute_ms" {
			out[k] = v
		}
	}
	return out
}

// TestRouterDifferential proves routing is invisible to the answer: for
// seeded graphs served by three replicas, the router's reply to a
// multi-source query (and to a full closure) carries the same
// successor_counts, the same successor lists in the order the server
// produced them, and the same metric record (wall-clock fields aside) as
// a single tcserve's reply to the same body.
func TestRouterDifferential(t *testing.T) {
	const nodes = 300
	sources := []int32{3, 41, 97, 150, 222, 288}
	for _, seed := range []int64{7, 23} {
		a := newReplicaServer(t, nodes, seed)
		b := newReplicaServer(t, nodes, seed)
		c := newReplicaServer(t, nodes, seed)
		single := newReplicaServer(t, nodes, seed)
		rt, ts := newFleetRouter(t, Options{}, a.URL, b.URL, c.URL)

		type differential struct {
			name string
			body map[string]any
		}
		var cases []differential
		for _, alg := range []string{"srch", "bj", "btc"} {
			cases = append(cases, differential{alg, map[string]any{"algorithm": alg, "sources": sources, "include_successors": true}})
		}
		cases = append(cases, differential{"full closure", map[string]any{"algorithm": "srch", "include_successors": true}})
		for _, tc := range cases {
			name, body := tc.name, tc.body
			resp, got := postQuery(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d %s: router status %d", seed, name, resp.StatusCode)
			}
			if got.Shards != 1 {
				t.Fatalf("seed %d %s: shards %d, want 1", seed, name, got.Shards)
			}
			want := postDirectQuery(t, single.URL, body)

			// encoding/json writes map keys sorted and slices in order, so
			// equal bytes mean equal counts, equal lists and equal order.
			gotCounts, wantCounts := mustJSON(t, got.SuccessorCounts), mustJSON(t, want.SuccessorCounts)
			if !bytes.Equal(gotCounts, wantCounts) {
				t.Fatalf("seed %d %s: successor_counts differ\nrouter: %s\nsingle: %s", seed, name, gotCounts, wantCounts)
			}
			if gotSucc, wantSucc := mustJSON(t, got.Successors), mustJSON(t, want.Successors); !bytes.Equal(gotSucc, wantSucc) {
				t.Fatalf("seed %d %s: successors differ\nrouter: %s\nsingle: %s", seed, name, gotSucc, wantSucc)
			}
			gotRec, wantRec := mustJSON(t, wallClockFree(got.Metrics)), mustJSON(t, wallClockFree(want.Metrics))
			if !bytes.Equal(gotRec, wantRec) {
				t.Fatalf("seed %d %s: metric records differ\nrouter: %s\nsingle: %s", seed, name, gotRec, wantRec)
			}
		}

		ts.Close()
		rt.Close()
		a.Close()
		b.Close()
		c.Close()
		single.Close()
	}
}
