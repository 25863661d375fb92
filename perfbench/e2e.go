package main

import (
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcstudy/internal/dynamic"
	"tcstudy/internal/pagedisk"
)

// runner sends one workload's traffic to its stack and checks every
// answer it can check on the spot; write-mix reads are checked after the
// run, against the graph as of the sequence number each answer reflects.
type runner struct {
	wl string
	st *stack
	in *inputs
	or *oracle
	hc *http.Client

	attempted, errs, wrong atomic.Int64 // errs: refused (429) or failed requests
	engineIO, engineQuery  atomic.Int64 // page I/O of answers the engine computed
	batchSeq               []int64      // write-mix sequence number per batch, 0 if refused

	mu       sync.Mutex
	reads    []readAt // write-mix reads as answered
	firstErr error    // the first failure, reported on standard error
}

func newRunner(wl string, st *stack, in *inputs, or *oracle) *runner {
	r := &runner{wl: wl, st: st, in: in, or: or, hc: newHTTPClient()}
	if wl == writeMix {
		r.batchSeq = make([]int64, len(in.batches))
	}
	return r
}

func (r *runner) fail(err error) bool {
	r.errs.Add(1)
	r.note(err)
	return false
}

func (r *runner) note(err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

func (r *runner) wrongAnswer(format string, args ...any) bool {
	r.wrong.Add(1)
	r.note(fmt.Errorf("wrong answer: "+format, args...))
	return false
}

// send is the runner's sender: one request, checked.
func (r *runner) send(o op) bool {
	r.attempted.Add(1)
	var rep reply
	switch o.kind {
	case opReach:
		if err := call(r.hc, http.MethodGet, reachURL(r.st.url, o.src, o.dst), nil, &rep); err != nil {
			return r.fail(err)
		}
		if r.wl == writeMix {
			r.mu.Lock()
			r.reads = append(r.reads, readAt{src: o.src, dst: o.dst, seq: rep.Seq, reachable: rep.Reachable})
			r.mu.Unlock()
			return true
		}
		if rep.Reachable != r.or.reach(o.src, o.dst) {
			return r.wrongAnswer("reach %d->%d = %t", o.src, o.dst, rep.Reachable)
		}
	case opQuery:
		if err := call(r.hc, http.MethodPost, r.st.url+"/v1/query", r.in.bodies[o.ref], &rep); err != nil {
			return r.fail(err)
		}
		q := r.in.queries[o.ref]
		if !r.or.checkCounts(q.Sources, rep.SuccessorCounts) {
			return r.wrongAnswer("%s %v successor counts %v", q.Alg, q.Sources, rep.SuccessorCounts)
		}
		if !rep.Cached && !rep.Deduplicated {
			r.engineIO.Add(rep.Metrics.TotalIO)
			r.engineQuery.Add(1)
		}
	case opArc:
		if err := call(r.hc, http.MethodPost, r.st.url+"/v1/arc", r.in.batchJS[o.ref], &rep); err != nil {
			return r.fail(err)
		}
		r.batchSeq[o.ref] = rep.Seq
	}
	return true
}

// warmRouted sends every routed-query pool entry once, so the measured
// window starts with the replicas' caches holding the pool, and checks
// each routed answer against a single server outside the fleet asked the
// same query. The check runs before the measured window so the single
// server is long gone when run end measures the fleet's heap.
func (r *runner) warmRouted() error {
	solo, _, _, err := newReplica(r.st.arcs, false, nil)
	if err != nil {
		return err
	}
	defer solo.close()
	for i, body := range r.in.bodies {
		if body == nil {
			continue
		}
		var routed, direct reply
		r.attempted.Add(2)
		if err := call(r.hc, http.MethodPost, r.st.url+"/v1/query", body, &routed); err != nil {
			r.fail(err)
			continue
		}
		if err := call(r.hc, http.MethodPost, solo.lb.url+"/v1/query", body, &direct); err != nil {
			r.fail(err)
			continue
		}
		q := r.in.queries[i]
		switch {
		case !r.or.checkCounts(q.Sources, routed.SuccessorCounts):
			r.wrongAnswer("%s %v successor counts %v", q.Alg, q.Sources, routed.SuccessorCounts)
		case !reflect.DeepEqual(routed.SuccessorCounts, direct.SuccessorCounts):
			r.wrongAnswer("routed answer to %s differs from a single server's", body)
		}
	}
	return nil
}

// failed is the number of requests refused, failed or answered wrongly so
// far, wrong answers found after the run included.
func (r *runner) failed() int64 { return r.errs.Load() + r.wrong.Load() }

// postCheck checks write-mix's reads and final graph, which need the
// whole run, against the benchmark's own copy of the applied batches.
func (r *runner) postCheck() error {
	if r.wl == writeMix {
		batches := make(map[int64][]dynamic.Op)
		for b, seq := range r.batchSeq {
			if seq > 0 {
				batches[seq] = r.in.batches[b]
			}
		}
		wrong, final, err := checkWrites(r.st.arcs, batches, r.reads)
		if err != nil {
			return err
		}
		for k := 0; k < wrong; k++ {
			r.wrongAnswer("write-mix read disagrees with BFS at its sequence number")
		}
		got := r.st.reps[0].dyn.Arcs()
		sortArcs(got)
		if !sameArcs(got, final) {
			r.wrongAnswer("write-mix final graph has %d arcs, the applied batches give %d", len(got), len(final))
		}
	}
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedPages counts the page frames each database's store still keeps
// reachable. Truncate shortens a file's page slice but keeps its backing
// array, so the frames of every temporary file a query ever wrote stay
// live; Store.NumPages reports only the current lengths. The count walks
// each *pagedisk.Disk's files and their page arrays by reflection, and
// fails when the store is not a Disk of that shape, so the metric never
// quietly changes what it counts.
func retainedPages(stores []pagedisk.Store) (int, error) {
	pages := 0
	for _, st := range stores {
		d, ok := st.(*pagedisk.Disk)
		if !ok {
			return 0, fmt.Errorf("retained pages: store is a %T, not a *pagedisk.Disk", st)
		}
		files := reflect.ValueOf(d).Elem().FieldByName("files")
		if !files.IsValid() || files.Kind() != reflect.Slice {
			return 0, errors.New("retained pages: pagedisk.Disk has no files slice")
		}
		for i := 0; i < files.Len(); i++ {
			f := files.Index(i)
			if f.Kind() != reflect.Pointer || f.Elem().Kind() != reflect.Struct {
				return 0, errors.New("retained pages: pagedisk.Disk.files holds no file pointers")
			}
			p := f.Elem().FieldByName("pages")
			if !p.IsValid() || p.Kind() != reflect.Slice || p.Type().Elem().Kind() != reflect.Pointer {
				return 0, errors.New("retained pages: a pagedisk file has no slice of page pointers")
			}
			p = p.Slice(0, p.Cap())
			for j := 0; j < p.Len(); j++ {
				if !p.Index(j).IsNil() {
					pages++
				}
			}
		}
	}
	return pages, nil
}
