package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"time"

	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/index"
	"tcstudy/internal/server"
)

// The traced run replays each layer on its own with a fixed number of
// inputs, generated from the run's seed by the workload that exercises
// that layer, so every traced run reports every layer and the same seed
// replays the same inputs on any commit.
const (
	replayReachPairs = 20000 // index.Reach probes per pass
	replayReachPass  = 10
	replayHandler    = 5000 // Server.ServeHTTP and loopback reach requests
	replayQueries    = 40   // distinct query-mix queries through core.Run and Server.ServeHTTP
	replayRouted     = 2    // timed passes over the routed-query pool
	replayReadRate   = 2000 // dynamic.Service.Reach calls per second beside write-mix's batches
)

// replayTimeout bounds each layer replay, so a pathologically slow commit
// still ends the run within its time limit.
const replayTimeout = 40 * time.Second

// serverDefaults is the engine configuration a server applies to a query
// that sets none: the paper's 10-page LRU pool.
var serverDefaults = core.Config{BufferPages: 10, PagePolicy: "lru", ListPolicy: "smallest"}

func freshIndex(arcs []graph.Arc) (*index.Index, error) {
	return index.BuildKT(graph.New(nodes, arcs), index.KTOptions{Parallelism: 1})
}

// replayReach times reach-hot's pairs at three layers: the index probe
// alone, Server.ServeHTTP called in process, and a loopback request whose
// server-side handler span is nested under the client span, so the
// client span's self time is what HTTP adds.
func replayReach(seed int64, arcs []graph.Arc, or *oracle, m map[string]float64) (*recorder, int, error) {
	in, err := genInputs(reachHot, seed, arcs, 0)
	if err != nil {
		return nil, 0, err
	}
	idx, err := freshIndex(arcs)
	if err != nil {
		return nil, 0, err
	}
	srv := server.New(core.NewDatabase(nodes, arcs), server.Options{Index: idx})
	defer srv.Close()
	rec := newRecorder()
	rec.spans = make([]span, 0, replayReachPass+3*replayHandler)
	wrong := 0

	pairs := in.loop[:replayReachPairs]
	for pass := 0; pass < replayReachPass; pass++ {
		start := time.Now()
		for _, o := range pairs {
			idx.Reach(o.src, o.dst)
		}
		rec.add("index.Reach", 2, int64(pass), start, time.Since(start), len(pairs))
	}
	for _, o := range pairs {
		if idx.Reach(o.src, o.dst) != or.reach(o.src, o.dst) {
			wrong++
		}
	}

	reqs := make([]*http.Request, replayHandler)
	ws := make([]*httptest.ResponseRecorder, replayHandler)
	for i := range reqs {
		o := in.loop[i]
		reqs[i] = httptest.NewRequest(http.MethodGet, reachURL("", o.src, o.dst), nil)
		ws[i] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, req := range reqs {
		start := time.Now()
		srv.ServeHTTP(ws[i], req)
		rec.add("server.reach", 1, int64(i), start, time.Since(start), 1)
	}
	runtime.ReadMemStats(&m1)
	for i, w := range ws {
		var rep reply
		o := in.loop[i]
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &rep) != nil || rep.Reachable != or.reach(o.src, o.dst) {
			wrong++
		}
	}
	m["server.reach_allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / replayHandler
	m["server.reach_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / replayHandler

	lb, err := serveLoopback(rec.wrap("server.reach.loopback", 1)(srv))
	if err != nil {
		return nil, 0, err
	}
	defer lb.close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for i := 0; i < replayHandler; i++ {
		o := in.loop[i]
		var rep reply
		start := time.Now()
		err := call(hc, http.MethodGet, reachURL(lb.url, o.src, o.dst), nil, &rep)
		rec.add("http.reach", 0, int64(i), start, time.Since(start), 1)
		if err != nil {
			return nil, 0, err
		}
		if rep.Reachable != or.reach(o.src, o.dst) {
			wrong++
		}
	}
	rec.nest()
	m["index.reach_ns"] = median(rec.durations("index.Reach", time.Nanosecond))
	m["server.reach_handler_us"] = percentile(rec.durations("server.reach", time.Microsecond), 0.5)
	m["http.reach_overhead_us"] = percentile(rec.selfTimes("http.reach", time.Microsecond), 0.5)
	return rec, wrong, nil
}

// replayQuery runs query-mix's first distinct queries through core.Run
// and through Server.ServeHTTP on a server whose cache has never seen
// them, so both execute the engine and their difference is what the
// serving layer adds around it.
func replayQuery(seed int64, arcs []graph.Arc, or *oracle, m map[string]float64) (*recorder, int, error) {
	in, err := genInputs(queryMix, seed, arcs, time.Minute)
	if err != nil {
		return nil, 0, err
	}
	db := core.NewDatabase(nodes, arcs)
	srv := server.New(db, server.Options{})
	defer srv.Close()
	rec := newRecorder()
	wrong := 0
	seen := make(map[int32]bool)
	var restructure, compute time.Duration
	var reads, writes, hits, misses, runs int64
	deadline := time.Now().Add(replayTimeout)
	for _, o := range in.sched {
		if len(seen) == replayQueries || time.Now().After(deadline) {
			break
		}
		if seen[o.ref] {
			continue
		}
		seen[o.ref] = true
		q := in.queries[o.ref]
		input := int64(o.ref)

		start := time.Now()
		res, err := core.Run(db, core.Algorithm(q.Alg), core.Query{Sources: q.Sources}, serverDefaults)
		rec.add("core.Run/"+q.Alg, 2, input, start, time.Since(start), 1)
		if err != nil {
			return nil, 0, fmt.Errorf("core.Run %s %v: %w", q.Alg, q.Sources, err)
		}
		counts := make(map[int32]int, len(res.Successors))
		for s, succ := range res.Successors {
			counts[s] = len(succ)
		}
		if !or.checkCounts(q.Sources, counts) {
			wrong++
		}
		mt := res.Metrics
		restructure += mt.RestructureTime
		compute += mt.ComputeTime
		reads += mt.Restructure.Reads + mt.Compute.Reads
		writes += mt.Restructure.Writes + mt.Compute.Writes
		hits += mt.ComputeBuffer.Hits
		misses += mt.ComputeBuffer.Misses
		runs++

		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(in.bodies[o.ref]))
		start = time.Now()
		srv.ServeHTTP(w, req)
		rec.add("server.query", 1, input, start, time.Since(start), 1)
		var rep reply
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &rep) != nil || !or.checkCounts(q.Sources, rep.SuccessorCounts) {
			wrong++
		}
	}
	for _, alg := range []string{"srch", "bj", "jkb2", "btc"} {
		m["core."+alg+"_run_ms"] = percentile(rec.durations("core.Run/"+alg, time.Millisecond), 0.5)
	}
	handler := rec.byInput("server.query", time.Millisecond)
	var over []float64
	for _, s := range rec.spans {
		if h, ok := handler[s.Input]; ok && s.Level == 2 {
			over = append(over, h-float64(s.Dur)/float64(time.Millisecond))
		}
	}
	m["server.query_overhead_ms"] = median(over)
	m["core.restructure_share"] = ratio(float64(restructure), float64(restructure+compute))
	m["buffer.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["pagedisk.reads_per_query"] = ratio(float64(reads), float64(runs))
	m["pagedisk.writes_per_query"] = ratio(float64(writes), float64(runs))
	return rec, wrong, nil
}

// replayDynamic replays write-mix's batches for d at their due times
// against a fresh dynamic.Service, with write-mix's reads paced between
// them at replayReadRate, calling Apply and Reach directly while the
// service's own worker rebuilds in the background.
func replayDynamic(seed int64, arcs []graph.Arc, d time.Duration, m map[string]float64) (*recorder, int, error) {
	in, err := genInputs(writeMix, seed, arcs, d)
	if err != nil {
		return nil, 0, err
	}
	ops := in.sched
	step := time.Second / replayReadRate
	for i, due := 0, time.Duration(0); due < d && i < len(in.loop); i, due = i+1, due+step {
		o := in.loop[i]
		o.due = due
		ops = append(ops, o)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	idx, err := freshIndex(arcs)
	if err != nil {
		return nil, 0, err
	}
	rec := newRecorder()
	svc, err := dynamic.New(nodes, arcs, idx, dynamic.Options{
		OnRebuild: func(gen int64, _ int, took time.Duration) {
			rec.add("dynamic.rebuild", 1, gen, time.Now().Add(-took), took, 1)
		},
	})
	if err != nil {
		return nil, 0, err
	}
	defer svc.Close()
	batches := make(map[int64][]dynamic.Op)
	var reads []readAt
	rejects := 0
	t0 := time.Now()
	for i, o := range ops {
		if wait := o.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		start := time.Now()
		if o.kind == opReach {
			ok, hit, seq, err := svc.Reach(o.src, o.dst, 0)
			dur := time.Since(start)
			if err != nil {
				return nil, 0, err
			}
			name := "dynamic.Reach/overlay"
			if hit {
				name = "dynamic.Reach/index"
			}
			rec.add(name, 2, int64(i), start, dur, 1)
			reads = append(reads, readAt{src: o.src, dst: o.dst, seq: seq, reachable: ok})
			continue
		}
		res, err := svc.Apply(in.batches[o.ref])
		dur := time.Since(start)
		if errors.Is(err, dynamic.ErrBacklog) {
			rejects++
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		rec.add("dynamic.Apply", 2, int64(i), start, dur, 1)
		batches[res.Seq] = in.batches[o.ref]
	}
	wrong, final, err := checkWrites(arcs, batches, reads)
	if err != nil {
		return nil, 0, err
	}
	got := svc.Arcs()
	sortArcs(got)
	if !sameArcs(got, final) {
		wrong++
	}
	apply := rec.durations("dynamic.Apply", time.Microsecond)
	idxReads := rec.durations("dynamic.Reach/index", time.Nanosecond)
	overlay := rec.durations("dynamic.Reach/overlay", time.Microsecond)
	m["dynamic.apply_us"] = percentile(apply, 0.5)
	m["dynamic.apply_p99_us"] = percentile(apply, 0.99)
	m["dynamic.index_reach_ns"] = percentile(idxReads, 0.5)
	m["dynamic.overlay_reach_us"] = percentile(overlay, 0.5)
	m["dynamic.overlay_read_ratio"] = ratio(float64(len(overlay)), float64(len(overlay)+len(idxReads)))
	m["dynamic.rebuilds"] = float64(svc.Stats().Rebuilds)
	m["dynamic.rebuild_ms"] = mean(rec.durations("dynamic.rebuild", time.Millisecond))
	m["dynamic.backlog_rejects"] = float64(rejects)
	return rec, wrong, nil
}

// replayRouter sends routed-query's pool through a router in front of two
// replicas and, for the same queries, straight to one replica. Both
// passes run after a warm pass, so replicas answer from their caches and
// the difference is the router's partition, scatter, merge and extra hop.
func replayRouter(seed int64, arcs []graph.Arc, or *oracle, m map[string]float64) (*recorder, int, error) {
	in, err := genInputs(routedQuery, seed, arcs, 0)
	if err != nil {
		return nil, 0, err
	}
	rec := newRecorder()
	rec.paused.Store(true)
	var reps []*replica
	for i := 0; i < 2; i++ {
		rep, _, _, err := newReplica(arcs, false, rec.wrap("replica.query", 2))
		if err != nil {
			return nil, 0, err
		}
		defer rep.close()
		reps = append(reps, rep)
	}
	rt, rlb, err := newRouter(reps, rec.wrap("router.query", 1))
	if err != nil {
		return nil, 0, err
	}
	defer rt.Close()
	defer rlb.close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	wrong := 0
	var subrequests, retriesHedges, sent int
	deadline := time.Now().Add(replayTimeout)
	for pass := -1; pass < replayRouted && time.Now().Before(deadline); pass++ {
		rec.paused.Store(pass < 0)
		for i, body := range in.bodies {
			if body == nil {
				continue
			}
			q := in.queries[i]
			var routed, solo reply
			start := time.Now()
			err := call(hc, http.MethodPost, rlb.url+"/v1/query", body, &routed)
			if pass >= 0 {
				rec.add("http.routed", 0, int64(i), start, time.Since(start), 1)
			}
			if err != nil {
				return nil, 0, err
			}
			start = time.Now()
			err = call(hc, http.MethodPost, reps[0].lb.url+"/v1/query", body, &solo)
			if pass >= 0 {
				rec.add("http.direct", 0, int64(i), start, time.Since(start), 1)
			}
			if err != nil {
				return nil, 0, err
			}
			if !or.checkCounts(q.Sources, routed.SuccessorCounts) || !reflect.DeepEqual(routed.SuccessorCounts, solo.SuccessorCounts) {
				wrong++
			}
			if pass >= 0 {
				subrequests += routed.Shards + routed.Retries + routed.Hedges
				retriesHedges += routed.Retries + routed.Hedges
				sent++
			}
		}
	}
	rec.nest()
	m["router.query_handler_ms"] = percentile(rec.durations("router.query", time.Millisecond), 0.5)
	m["router.overhead_ms"] = percentile(rec.durations("http.routed", time.Millisecond), 0.5) -
		percentile(rec.durations("http.direct", time.Millisecond), 0.5)
	m["router.subrequests_per_query"] = ratio(float64(subrequests), float64(sent))
	m["router.retries_hedges"] = float64(retriesHedges)
	return rec, wrong, nil
}
