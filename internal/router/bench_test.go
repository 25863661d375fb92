package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcstudy/internal/core"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/server"
)

// Router benchmarks: aggregate query throughput through the affinity
// router at different fleet sizes. Replicas are in-process httptest servers,
// so these numbers measure the routing tier's overhead and concurrency
// behavior, not cross-machine scaling — the useful comparison is the qps
// metric between the replicas=1 and replicas=3 sub-benchmarks on the same
// run.

var (
	routerBenchOnce sync.Once
	routerBenchDB   *core.Database
)

func routerBenchFleet(b *testing.B, n int) string {
	b.Helper()
	routerBenchOnce.Do(func() {
		arcs, err := graphgen.Generate(graphgen.Params{Nodes: 500, OutDegree: 5, Locality: 50, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		routerBenchDB = core.NewDatabase(500, arcs)
	})
	urls := make([]string, n)
	for i := range urls {
		s := server.New(routerBenchDB, server.Options{CacheEntries: 4096})
		ts := httptest.NewServer(s)
		b.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		urls[i] = ts.URL
	}
	rt, err := New(Options{Replicas: urls, HealthInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	rt.CheckNow(context.Background())
	front := httptest.NewServer(rt)
	b.Cleanup(func() {
		front.Close()
		rt.Close()
	})
	return front.URL
}

// BenchmarkRouterScaling drives concurrent multi-source queries through
// the router. Source sets rotate so most requests miss the replica result
// caches and exercise the engines; the reported qps is the aggregate
// across all client goroutines.
func BenchmarkRouterScaling(b *testing.B) {
	for _, replicas := range []int{1, 3} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			url := routerBenchFleet(b, replicas)
			client := &http.Client{}
			var seq atomic.Int64
			b.ResetTimer()
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					sources := []int32{
						int32(i*7%500) + 1,
						int32(i*13%500) + 1,
						int32(i*29%500) + 1,
						int32(i*43%500) + 1,
					}
					body, _ := json.Marshal(map[string]any{"algorithm": "srch", "sources": sources})
					resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
				}
			})
			elapsed := time.Since(start)
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "qps")
			}
		})
	}
}

// BenchmarkRouterCachedQuery measures the pure routing overhead: the same
// query repeated, served from its owner's result cache.
func BenchmarkRouterCachedQuery(b *testing.B) {
	url := routerBenchFleet(b, 3)
	client := &http.Client{}
	body, _ := json.Marshal(map[string]any{"algorithm": "srch", "sources": []int32{7, 42, 99, 250}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
