package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"tcstudy/internal/core"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
	"tcstudy/internal/graphgen"
	"tcstudy/internal/index"
	"tcstudy/internal/router"
	"tcstudy/internal/server"
)

// loopback is one handler served over HTTP on 127.0.0.1.
type loopback struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return lb, nil
}

func (lb *loopback) close() {
	_ = lb.hs.Close() // closing listener and connections cannot fail in a way we act on
	<-lb.done
}

// replica is one in-process tcserve: a database, its reachability index,
// for write-mix the dynamic graph service, and the server answering over
// loopback.
type replica struct {
	db  *core.Database
	idx *index.Index
	dyn *dynamic.Service
	srv *server.Server
	lb  *loopback
}

func (r *replica) close() {
	if r.lb != nil {
		r.lb.close()
	}
	r.srv.Close()
	if r.dyn != nil {
		r.dyn.Close()
	}
}

// stack is a workload's serving stack: one replica, or two behind a
// router for routed-query.
type stack struct {
	arcs []graph.Arc
	reps []*replica
	rt   *router.Router
	rlb  *loopback
	url  string // where clients send requests
}

func (s *stack) close() {
	if s.rlb != nil {
		s.rlb.close()
	}
	if s.rt != nil {
		s.rt.Close()
	}
	for _, r := range s.reps {
		r.close()
	}
}

// setupTimes splits one set-up into the layers that pay for it.
type setupTimes struct {
	generate, load, build, total time.Duration
}

// wrapper wraps the handler a loopback listener serves, as the traced
// replays do to record spans; nil serves the handler as it is.
type wrapper func(http.Handler) http.Handler

func serveWrapped(h http.Handler, wrap wrapper) (*loopback, error) {
	if wrap != nil {
		h = wrap(h)
	}
	return serveLoopback(h)
}

// newReplica loads the arcs into a database, builds the KT index over
// them and serves both with the server defaults; mutable adds the dynamic
// graph service that tcserve -mutable runs. It reports how long the
// database load and the index build took.
func newReplica(arcs []graph.Arc, mutable bool, wrap wrapper) (rep *replica, load, build time.Duration, err error) {
	t0 := time.Now()
	rep = &replica{db: core.NewDatabase(nodes, arcs)}
	t1 := time.Now()
	if rep.idx, err = index.BuildKT(graph.New(nodes, arcs), index.KTOptions{Parallelism: 1}); err != nil {
		return nil, 0, 0, fmt.Errorf("build index: %w", err)
	}
	t2 := time.Now()
	opts := server.Options{Index: rep.idx}
	if mutable {
		fp, err := rep.db.Fingerprint()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("fingerprint: %w", err)
		}
		if rep.dyn, err = dynamic.New(nodes, arcs, rep.idx, dynamic.Options{BaseFingerprint: fp}); err != nil {
			return nil, 0, 0, err
		}
		opts.Dynamic = rep.dyn
	}
	rep.srv = server.New(rep.db, opts)
	if rep.lb, err = serveWrapped(rep.srv, wrap); err != nil {
		rep.close()
		return nil, 0, 0, err
	}
	return rep, t1.Sub(t0), t2.Sub(t1), nil
}

// buildStack generates the paper-scale graph and stands up the
// workload's serving stack, timing each layer of the set-up.
func buildStack(workload string) (*stack, setupTimes, error) {
	var tm setupTimes
	start := time.Now()
	arcs, err := graphgen.Generate(graphgen.Params{Nodes: nodes, OutDegree: outDegree, Locality: locality, Seed: graphSeed})
	if err != nil {
		return nil, tm, err
	}
	tm.generate = time.Since(start)
	s := &stack{arcs: arcs}
	fail := func(err error) (*stack, setupTimes, error) {
		s.close()
		return nil, tm, err
	}
	replicas := 1
	if workload == routedQuery {
		replicas = 2
	}
	for i := 0; i < replicas; i++ {
		rep, load, build, err := newReplica(arcs, workload == writeMix, nil)
		if err != nil {
			return fail(err)
		}
		if i == 0 {
			tm.load, tm.build = load, build
		}
		s.reps = append(s.reps, rep)
	}
	s.url = s.reps[0].lb.url
	if workload == routedQuery {
		if s.rt, s.rlb, err = newRouter(s.reps, nil); err != nil {
			return fail(err)
		}
		s.url = s.rlb.url
	}
	tm.total = time.Since(start)
	return s, tm, nil
}

// newRouter fronts the replicas with a router, enrolls them with one
// synchronous health sweep and starts the background health loop, as
// tcrouter does.
func newRouter(reps []*replica, wrap wrapper) (*router.Router, *loopback, error) {
	hc, urls := fleetClient(reps)
	rt, err := router.New(router.Options{Replicas: urls, Client: hc})
	if err != nil {
		return nil, nil, err
	}
	rt.CheckNow(context.Background())
	rt.Start()
	lb, err := serveWrapped(rt, wrap)
	if err != nil {
		rt.Close()
		return nil, nil, err
	}
	if err := enrolled(lb.url, len(reps)); err != nil {
		lb.close()
		rt.Close()
		return nil, nil, err
	}
	return rt, lb, nil
}

// enrolled checks that the router at url reports every replica healthy.
func enrolled(url string, replicas int) error {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var h struct {
		Healthy int `json:"healthy_replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("router healthz: %w", err)
	}
	if h.Healthy != replicas {
		return fmt.Errorf("router enrolled %d of %d replicas", h.Healthy, replicas)
	}
	return nil
}

// fleetClient names the replicas replica-1, replica-2, ... and returns
// those URLs with a client that dials each name to its loopback listener.
// The router's consistent-hash ring hashes replica URLs, so fixed names
// place sources on the same replicas in every run; the listeners' random
// ports moved routed throughput by up to a fifth from run to run.
func fleetClient(reps []*replica) (*http.Client, []string) {
	addrs := make(map[string]string, len(reps))
	var urls []string
	for i, r := range reps {
		name := fmt.Sprintf("replica-%d", i+1)
		addrs[name+":80"] = strings.TrimPrefix(r.lb.url, "http://")
		urls = append(urls, "http://"+name)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return d.DialContext(ctx, network, addr)
	}
	return &http.Client{Transport: tr}, urls
}
