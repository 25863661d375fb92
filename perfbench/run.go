package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"tcstudy/internal/pagedisk"
)

// run executes one workload run and returns its record, plus the spans
// of a traced run.
func run(wl string, seed int64, measure time.Duration, traced bool) (*record, *recorder, error) {
	rec := &record{Workload: wl, Seed: seed, Valid: true, Metrics: map[string]float64{}, Detail: map[string]float64{}}

	var st *stack
	var gen, load, build, total []float64
	for k := 0; k < setupReps; k++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		var tm setupTimes
		var err error
		if st, tm, err = buildStack(wl); err != nil {
			return nil, nil, err
		}
		gen = append(gen, tm.generate.Seconds())
		load = append(load, tm.load.Seconds())
		build = append(build, tm.build.Seconds())
		total = append(total, tm.total.Seconds())
	}
	defer st.close()
	or := newOracle(nodes, st.arcs)

	tl := timeline{warm: warmup, window: measure}
	if traced {
		tl.window = time.Duration(tracedShare * float64(measure))
		tl.slice = traceSlice
	}
	in, err := genInputs(wl, seed, st.arcs, tl.total())
	if err != nil {
		return nil, nil, err
	}
	rec.Params = params(wl, tl)
	r := newRunner(wl, st, in, or)
	defer r.hc.CloseIdleConnections()
	if wl == routedQuery {
		if err := r.warmRouted(); err != nil {
			return nil, nil, err
		}
	}

	// Closed-loop clients and open-loop senders share the two client
	// goroutines: write-mix reads in a closed loop beside its scheduled
	// writes, because time.Sleep overshoots by up to ~1 ms on a 2-CPU
	// x86-64 VM, and an open-loop stream of ~60 µs reads would time the
	// generator's wake-ups.
	closed, senders := clients, 0
	switch {
	case in.loop == nil:
		closed, senders = 0, clients
	case in.sched != nil:
		closed, senders = 1, 1
	}
	spans := newRecorder()
	t0 := time.Now()
	cpu0 := make(chan time.Duration, 1)
	go func() {
		time.Sleep(time.Until(t0.Add(tl.warm)))
		cpu0 <- cpuTime()
	}()
	var samples, scheduled []sample
	var wg sync.WaitGroup
	if senders > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scheduled = runOpen(in.sched, senders, tl, t0, r.send, spans)
		}()
	}
	if closed > 0 {
		samples = runClosed(in.loop, closed, tl, t0, r.send, spans)
	}
	wg.Wait()
	samples = append(samples, scheduled...)
	cpu := cpuTime() - <-cpu0
	if err := r.postCheck(); err != nil {
		return nil, nil, err
	}
	rec.Attempted, rec.Failed = r.attempted.Load(), r.failed()
	unsent := 0
	for _, s := range samples {
		if s.unsent {
			unsent++
		}
	}
	rec.Attempted += int64(unsent)
	rec.Failed += int64(unsent)

	// Outcomes of the measured window (and, in traced runs, the traced one).
	byPhase := func(ph int, kinds ...opKind) (lat []float64, okN int, last time.Duration) {
		for _, s := range samples {
			if int(s.phase) != ph || !s.ok {
				continue
			}
			okN++
			if end := s.at + s.lat; end > last {
				last = end
			}
			for _, k := range kinds {
				if s.kind == k {
					lat = append(lat, ms(s.lat))
				}
			}
		}
		return
	}
	rec.Correct = r.wrong.Load() == 0
	if r.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", r.firstErr)
	}
	// Generator lateness of the open loop where there is one.
	paced := samples
	if senders > 0 {
		paced = scheduled
	}
	var lateAll, lateTraced []float64
	for _, s := range paced {
		switch int(s.phase) {
		case phaseMeasure:
			lateAll = append(lateAll, ms(s.late))
		case phaseTraced:
			lateTraced = append(lateTraced, ms(s.late))
		}
	}
	lateP99 := percentile(lateAll, 0.99)
	if senders > 0 && (lateP99 > ms(maxLateP99) || unsent > 0) {
		rec.Valid = false
		rec.Invalid = fmt.Sprintf("load generator fell behind: late p99 %.2f ms, %d requests not sent", lateP99, unsent)
	}
	rec.Detail["loadgen.late_p99_ms"] = lateP99
	rec.Detail["failed_ratio"] = ratio(float64(rec.Failed), float64(rec.Attempted))
	if q := r.engineQuery.Load(); q > 0 {
		rec.Detail["pageio_per_query"] = float64(r.engineIO.Load()) / float64(q)
	}
	for _, c := range []struct {
		kind  opKind
		name  string // format of the metric name, %s the percentile
		scale float64
	}{{opReach, "reach_%s_us", 1000}, {opQuery, "query_%s_ms", 1}, {opArc, "write_%s_ms", 1}} {
		lat, _, _ := byPhase(phaseMeasure, c.kind)
		if len(lat) == 0 {
			continue
		}
		for _, p := range []float64{50, 90, 99} {
			rec.Detail[fmt.Sprintf(c.name, fmt.Sprintf("p%d", int(p)))] = percentile(lat, p/100) * c.scale
		}
	}

	if traced {
		if err := layers(rec, seed, st, or, measure, spans); err != nil {
			return nil, nil, err
		}
		untracedLat, _, _ := byPhase(phaseMeasure, opReach, opQuery)
		tracedLat, _, _ := byPhase(phaseTraced, opReach, opQuery)
		base := mean(untracedLat)
		rec.Metrics["trace.overhead_pct"] = 100 * ratio(mean(tracedLat)-base, base)
		rec.Metrics["loadgen.late_p99_ms"] = percentile(append(lateAll, lateTraced...), 0.99)
		rec.Metrics["graphgen.generate_s"] = median(gen)
		rec.Metrics["core.load_s"] = median(load)
		rec.Metrics["index.build_s"] = median(build)
		rec.Metrics["index.chains"] = float64(st.reps[0].idx.Chains())
		return rec, spans, nil
	}

	reads, okN, last := byPhase(phaseMeasure, opReach, opQuery)
	window := last - tl.warm
	rec.Metrics["setup_s"] = median(total)
	rec.Metrics["throughput_ops"] = float64(okN) / window.Seconds()
	rec.Metrics["read_mean_ms"] = mean(reads)
	rec.Metrics["read_p90_ms"] = percentile(reads, 0.90)
	rec.Detail["read_p50_ms"] = percentile(reads, 0.5)
	rec.Metrics["cpu_ms_per_op"] = ratio(ms(cpu), float64(okN))
	// Live heap of the serving stack: drop the benchmark's own per-request
	// state first, so the figure does not grow with requests sent.
	samples, scheduled, paced, reads, in, r.in, r.reads = nil, nil, nil, nil, nil, nil, nil
	settle(st)
	rec.Metrics["heap_live_mb"] = liveHeapMB()
	return rec, nil, nil
}

// settle waits (up to 10 s) for write-mix's last generational rebuild to
// finish, so the live heap holds one index generation, not a rebuild's
// snapshot half-way.
func settle(st *stack) {
	dyn := st.reps[0].dyn
	for deadline := time.Now().Add(10 * time.Second); dyn != nil && time.Now().Before(deadline); {
		if s := dyn.Stats(); !s.Dirty && s.Pending == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// layers fills a traced run's per-layer metrics: counters of the serving
// stack the traffic just ran on, then one replay per layer.
func layers(rec *record, seed int64, st *stack, or *oracle, measure time.Duration, spans *recorder) error {
	var hits, misses, rejected, outcomes int64
	var stores []pagedisk.Store
	for _, rep := range st.reps {
		m := rep.srv.Metrics()
		hits += m.CacheHits.Load()
		misses += m.CacheMisses.Load()
		rejected += m.Rejected.Load()
		outcomes += m.Queries.Load() + m.Reaches.Load() + m.ArcWrites.Load() +
			m.Rejected.Load() + m.Timeouts.Load() + m.StorageFaults.Load() + m.Errors.Load()
		stores = append(stores, rep.db.Store())
	}
	rec.Metrics["server.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	rec.Metrics["server.rejected_ratio"] = ratio(float64(rejected), float64(outcomes))
	rec.Metrics["router.replica_cache_hit_ratio"] = 0
	if st.rt != nil {
		rec.Metrics["router.replica_cache_hit_ratio"] = rec.Metrics["server.cache_hit_ratio"]
	}
	pages, err := retainedPages(stores)
	if err != nil {
		return err
	}
	rec.Metrics["pagedisk.retained_pages"] = float64(pages)

	replays := []func() (*recorder, int, error){
		func() (*recorder, int, error) { return replayReach(seed, st.arcs, or, rec.Metrics) },
		func() (*recorder, int, error) { return replayQuery(seed, st.arcs, or, rec.Metrics) },
		func() (*recorder, int, error) {
			return replayDynamic(seed, st.arcs, time.Duration(replayShare*float64(measure)), rec.Metrics)
		},
		func() (*recorder, int, error) { return replayRouter(seed, st.arcs, or, rec.Metrics) },
	}
	for _, replay := range replays {
		r, wrong, err := replay()
		if err != nil {
			return err
		}
		if wrong > 0 {
			rec.Correct = false
			rec.Failed += int64(wrong)
		}
		spans.merge(r)
	}
	return nil
}

func params(wl string, tl timeline) map[string]any {
	p := map[string]any{
		"nodes": nodes, "out_degree": outDegree, "locality": locality, "graph_seed": graphSeed,
		"index": "kt", "buffer_pages": 10, "cache_entries": 256, "clients": clients,
		"warmup_s": tl.warm.Seconds(), "window_s": tl.window.Seconds(), "trace_slice_s": tl.slice.Seconds(),
		"setup_reps": setupReps, "zipf_exponent": zipfExponent,
	}
	switch wl {
	case reachHot:
		p["loop"] = "closed"
	case queryMix:
		p["loop"], p["rate_per_s"], p["pool"], p["algorithms"], p["sources"] = "open", queryMixRate, queryPoolSize, "srch,bj,jkb2,btc", "1-16"
	case writeMix:
		p["loop"], p["batches_per_s"], p["batch_ops"] = "closed reads (1 client), open writes (1 sender)", writeMixWrite, batchOps
		p["ops_mix"] = "delete 0.3, insert absent 0.3 (1 in 10 backwards), re-insert present 0.4"
	case routedQuery:
		p["loop"], p["replicas"], p["pool"], p["algorithms"], p["sources"] = "closed", 2, routedPoolSize, "srch,jkb2", "4-8"
	}
	return p
}
