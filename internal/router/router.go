// Package router is the affinity-routing tier in front of a fleet of
// stateless tcserve replicas. Every replica holds a full copy of the
// sealed database (and index) files, so any replica can answer any read;
// routing only decides whose result cache a read warms. A consistent-hash
// ring gives each read an owning replica by its affinity key — the
// query's sorted source set, salted per tenant — and the whole request
// goes to that owner. A multi-source query is never split: the paper's
// partial-closure algorithms are cheap exactly when the sources share
// marked descendants (selection efficiency vs marking utilization), and
// splitting the sources across replicas would make each replica expand
// the shared descendants again.
//
// Three defenses keep the tier serving under replica trouble:
//
//   - health: replicas are enrolled only while /healthz answers with the
//     fleet's dataset fingerprint; consecutive failures mark a replica
//     out, consecutive successes re-enroll it, and a mismatched
//     fingerprint (a replica serving the wrong graph) is refused outright.
//   - retries: transient replica outcomes (503, transport errors) are
//     retried with the tcload backoff policy (internal/httpretry),
//     rotating to the next healthy replica — any replica can answer any
//     read, ownership is only an affinity.
//   - hedging: a request that exceeds a latency threshold triggers a
//     second request to the next healthy replica; the first useful answer
//     wins and the loser is cancelled through its context.
//
// Writes (POST /v1/arc) are the exception: they fan out to every enrolled
// replica (write.go). The router exposes its own Prometheus /metrics
// through internal/obsv. See docs/ROUTER.md.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"tcstudy/internal/httpretry"
)

// Options configures a Router. Zero values select the defaults.
type Options struct {
	// Replicas are the tcserve base URLs fronted by this router.
	Replicas []string
	// HealthInterval is the period of the background /healthz sweep
	// started by Start (default 2s; <= 0 disables the loop — tests drive
	// CheckNow directly).
	HealthInterval time.Duration
	// HealthTimeout bounds one /healthz probe (default 2s).
	HealthTimeout time.Duration
	// FailThreshold is how many consecutive health-check failures mark a
	// healthy replica out (default 3).
	FailThreshold int
	// RecoverThreshold is how many consecutive successes re-enroll a
	// replica that was marked out (default 2).
	RecoverThreshold int
	// Retries and Backoff set the shared transient-retry policy for
	// replica requests (defaults 2 and 25ms, tcload's defaults).
	Retries int
	Backoff time.Duration
	// HedgeAfter sends a hedged second request to the next healthy
	// replica when the first has not answered within this threshold
	// (default 0: hedging disabled).
	HedgeAfter time.Duration
	// ShardTimeout bounds one replica request including its retries
	// (default 30s).
	ShardTimeout time.Duration
	// Vnodes is the number of consistent-hash points per replica
	// (default 64).
	Vnodes int
	// ExpectFingerprint pins the fleet's dataset fingerprint. Empty means
	// the first healthy replica's fingerprint becomes the fleet's.
	ExpectFingerprint string
	// MaxGenerationLag, when positive, excludes a healthy mutable replica
	// from the read ring while its applied mutation sequence trails the
	// fleet's most advanced replica by more than this many batches. The
	// replica keeps its enrollment — write fan-outs still reach it — so it
	// rejoins the ring as soon as it catches up. 0 disables lag exclusion.
	MaxGenerationLag int
	// Client is the HTTP client for all replica traffic (default: a
	// dedicated client; per-request contexts carry the deadlines).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.HealthInterval == 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.HealthTimeout == 0 {
		o.HealthTimeout = 2 * time.Second
	}
	if o.FailThreshold == 0 {
		o.FailThreshold = 3
	}
	if o.RecoverThreshold == 0 {
		o.RecoverThreshold = 2
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff == 0 {
		o.Backoff = 25 * time.Millisecond
	}
	if o.ShardTimeout == 0 {
		o.ShardTimeout = 30 * time.Second
	}
	if o.Vnodes == 0 {
		o.Vnodes = 64
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// Router routes reads to a replica fleet by affinity and replicates writes
// to all of it.
type Router struct {
	opts   Options
	client *http.Client
	retry  httpretry.Policy
	met    *Metrics
	mux    *http.ServeMux

	// writeMu serializes mutation fan-outs: batches must land on every
	// replica in the same order or their logs (and index states) diverge.
	writeMu sync.Mutex

	mu          sync.RWMutex
	replicas    []*replica
	ring        *ring                    // healthy replicas only; nil while none are enrolled
	expect      string                   // fleet dataset fingerprint ("" until first enrollment)
	nodes       int                      // fleet node count, from the enrolling healthz
	fleetGraphs map[string]graphIdentity // per-tenant identities (multi-graph fleets)

	stop     chan struct{}
	stopOnce sync.Once
	loopWG   sync.WaitGroup
}

// New builds a router over the given replica URLs. All replicas start
// unenrolled; call CheckNow (or Start) to take the fleet's health.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	rt := &Router{
		opts:   opts,
		client: opts.Client,
		retry:  httpretry.Policy{Max: opts.Retries, Backoff: opts.Backoff},
		met:    NewMetrics(),
		mux:    http.NewServeMux(),
		expect: opts.ExpectFingerprint,
		stop:   make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, url := range opts.Replicas {
		if seen[url] {
			return nil, fmt.Errorf("router: duplicate replica %s", url)
		}
		seen[url] = true
		rt.replicas = append(rt.replicas, &replica{url: url})
	}
	rt.mux.HandleFunc("POST /v1/query", rt.handleQuery)
	rt.mux.HandleFunc("POST /v1/arc", rt.handleArc)
	rt.mux.HandleFunc("GET /v1/reach", rt.handleReach)
	rt.mux.HandleFunc("GET /v1/plan", rt.handlePlan)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Metrics exposes the live counters (for tests and embedding).
func (rt *Router) Metrics() *Metrics { return rt.met }

// snapshot returns the current ring (nil when no replica is healthy).
func (rt *Router) snapshot() *ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// tenantSalt folds a tenant name into a ring-key perturbation, so the same
// source set of different tenants lands on different owners: each
// tenant's working set spreads independently over the fleet, and one
// tenant's hot queries do not pile onto the replicas owning another
// tenant's identical vertex ids. The default tenant's salt is zero.
func tenantSalt(graph string) int32 {
	if graph == "" {
		return 0
	}
	f := fnv.New32a()
	f.Write([]byte(graph))
	return int32(f.Sum32())
}

// affinityKey is the ring key of a read: its source set, sorted and
// de-duplicated so every spelling of one set shares an owner, folded with
// FNV-1a and salted by the tenant. The empty set — a full closure, or a
// plan request — keys on the tenant alone, which pins each tenant's
// full-closure cache and planner evidence to one replica.
func affinityKey(tenant string, sources []int32) int32 {
	salt := tenantSalt(tenant)
	if len(sources) == 0 {
		return salt
	}
	set := slices.Clone(sources)
	slices.Sort(set)
	set = slices.Compact(set)
	h := uint32(2166136261)
	for _, s := range set {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint32(s) >> shift & 0xff
			h *= 16777619
		}
	}
	return int32(h) ^ salt
}

// shardOutcome is the final result of one replica request after retries
// and hedging.
type shardOutcome struct {
	status  int
	body    []byte
	err     error
	retries int
	hedges  int
}

// sendResult is one wire attempt's result.
type sendResult struct {
	status int
	body   []byte
	err    error
	rep    *replica
}

// send performs one HTTP exchange with one replica and charges the
// per-shard counters.
func (rt *Router) send(ctx context.Context, rep *replica, method, path string, body []byte) sendResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.url+path, rd)
	if err != nil {
		rt.met.ShardRequest(rep.url, false)
		return sendResult{err: err, rep: rep}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.met.ShardRequest(rep.url, false)
		return sendResult{err: err, rep: rep}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		rt.met.ShardRequest(rep.url, false)
		return sendResult{err: err, rep: rep}
	}
	rt.met.ShardRequest(rep.url, resp.StatusCode == http.StatusOK)
	return sendResult{status: resp.StatusCode, body: b, rep: rep}
}

// hedgedSend races one attempt against a hedge: the primary goes out
// immediately; if it has not answered within HedgeAfter, the same request
// is sent to alt, and the first useful (non-transient) answer wins while
// the loser's context is cancelled. With hedging disabled or no alternate
// replica available it is a plain send.
func (rt *Router) hedgedSend(ctx context.Context, primary, alt *replica, method, path string, body []byte) (sendResult, int) {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	ch := make(chan sendResult, 2)
	go func() { ch <- rt.send(pctx, primary, method, path, body) }()
	if rt.opts.HedgeAfter <= 0 || alt == nil {
		return <-ch, 0
	}
	timer := time.NewTimer(rt.opts.HedgeAfter)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r, 0
	case <-timer.C:
	}
	rt.met.Hedges.Add(1)
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	go func() { ch <- rt.send(actx, alt, method, path, body) }()
	first := <-ch
	if !httpretry.Retryable(first.status, first.err) {
		if first.rep == alt {
			rt.met.HedgeWins.Add(1)
		}
		return first, 1 // deferred cancels abort the loser in flight
	}
	// The first leg to answer failed transiently. Give the surviving leg
	// one more hedge window rather than waiting it out: HedgeAfter is the
	// patience threshold, and the retry layer can rotate to a different
	// replica faster than a stuck leg can answer.
	grace := time.NewTimer(rt.opts.HedgeAfter)
	defer grace.Stop()
	select {
	case second := <-ch:
		if !httpretry.Retryable(second.status, second.err) {
			if second.rep == alt {
				rt.met.HedgeWins.Add(1)
			}
			return second, 1
		}
		// Both failed transiently; report the primary's outcome and let
		// the retry layer rotate.
		if first.rep == primary {
			return first, 1
		}
		return second, 1
	case <-grace.C:
		return first, 1
	}
}

// doShard runs one replica request to completion: attempts rotate
// through the healthy replicas starting at the owner, transient outcomes
// retry with exponential backoff, and each attempt may hedge to the next
// replica in the rotation.
func (rt *Router) doShard(ctx context.Context, rot []*replica, method, path string, body []byte) shardOutcome {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.ShardTimeout)
	defer cancel()
	var out shardOutcome
	_, retries, _ := rt.retry.Do(ctx, func(try int) (int, error) {
		primary := rot[try%len(rot)]
		var alt *replica
		if len(rot) > 1 {
			alt = rot[(try+1)%len(rot)]
		}
		r, hedges := rt.hedgedSend(ctx, primary, alt, method, path, body)
		out.status, out.body, out.err = r.status, r.body, r.err
		out.hedges += hedges
		return r.status, r.err
	})
	out.retries = retries
	rt.met.Retries.Add(int64(retries))
	return out
}

// failShard translates a failed shard outcome into the router's response:
// a replica's HTTP failure passes through verbatim (the bodies carry the
// server's own error contract — retry hints and all), a transport failure
// after retries is a 502.
func (rt *Router) failShard(w http.ResponseWriter, out shardOutcome) {
	rt.met.Errors.Add(1)
	if out.err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error":     fmt.Sprintf("replica unreachable after %d retries: %v", out.retries, out.err),
			"transient": true,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(out.status)
	_, _ = w.Write(out.body)
}

// noReplicas rejects a request when the ring is empty.
func (rt *Router) noReplicas(w http.ResponseWriter) {
	rt.met.Unavailable.Add(1)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":     "no healthy replicas",
		"transient": true,
	})
}

// handleQuery routes a closure query whole to the owner of its source
// set. Only the routing key is decoded: the owner receives the client's
// body as sent, and its reply comes back as sent plus the routing
// accounting.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	rt.met.Queries.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err != nil {
		rt.met.Errors.Add(1)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": fmt.Sprintf("read request body: %v", err)})
		return
	}
	var key struct {
		Sources []int32 `json:"sources"`
		Graph   string  `json:"graph"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&key); err != nil {
		rt.met.Errors.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad request body: %v", err)})
		return
	}
	// tcserve's precedence: the graph= parameter, then the body's field.
	tenant := r.URL.Query().Get("graph")
	if tenant == "" {
		tenant = key.Graph
	}
	rt.proxy(w, r, tenant, key.Sources, body, true)
}

// handleReach routes src->dst reachability by the set {src}.
func (rt *Router) handleReach(w http.ResponseWriter, r *http.Request) {
	rt.met.Reaches.Add(1)
	src, err := strconv.ParseInt(r.URL.Query().Get("src"), 10, 32)
	if err != nil {
		rt.met.Errors.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "reach needs integer src and dst parameters"})
		return
	}
	rt.proxy(w, r, r.URL.Query().Get("graph"), []int32{int32(src)}, nil, false)
}

// handlePlan proxies the planner ranking, keyed on the tenant alone:
// every replica serves the same graphs, so any profile is the fleet's
// profile, and the pin keeps a tenant's plan requests on the replica
// whose adaptive observation store its full-closure queries feed.
func (rt *Router) handlePlan(w http.ResponseWriter, r *http.Request) {
	rt.met.Plans.Add(1)
	rt.proxy(w, r, r.URL.Query().Get("graph"), nil, nil, false)
}

// proxy sends one read, method, path and query string unchanged, along
// the ring rotation of its affinity key (owner first, then the fallbacks
// doShard retries and hedges to) and passes the reply through. With
// accounting set, the reply object gains the routing fields shards
// (always 1), retries and hedges, spliced in without decoding it.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, tenant string, sources []int32, body []byte, accounting bool) {
	start := time.Now()
	rg := rt.snapshot()
	if rg == nil {
		rt.noReplicas(w)
		return
	}
	rt.met.TenantRequest(tenant)
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	out := rt.doShard(r.Context(), rg.rotation(affinityKey(tenant, sources)), r.Method, path, body)
	if out.err != nil || out.status != http.StatusOK {
		rt.failShard(w, out)
		return
	}
	var head []byte
	reply := out.body
	if accounting {
		rest, ok := bytes.CutPrefix(reply, []byte("{"))
		if !ok || bytes.HasPrefix(bytes.TrimLeft(rest, " \t\r\n"), []byte("}")) {
			rt.met.Errors.Add(1)
			writeJSON(w, http.StatusBadGateway, map[string]string{"error": "bad replica response: not a non-empty JSON object"})
			return
		}
		head = fmt.Appendf(nil, `{"shards":1,"retries":%d,"hedges":%d,`, out.retries, out.hedges)
		reply = rest
	}
	rt.met.ObserveLatency(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(head)
	_, _ = w.Write(reply)
}

// replicaStatus is one replica's entry in the router's /healthz.
type replicaStatus struct {
	URL                 string            `json:"url"`
	State               string            `json:"state"`
	Fingerprint         string            `json:"fingerprint,omitempty"`
	Nodes               int               `json:"nodes,omitempty"`
	Arcs                int               `json:"arcs,omitempty"`
	Graphs              map[string]string `json:"graphs,omitempty"` // tenant -> fingerprint
	IndexGeneration     int               `json:"index_generation,omitempty"`
	Seq                 int64             `json:"seq,omitempty"`
	Pending             int               `json:"pending,omitempty"`
	Lagging             bool              `json:"lagging,omitempty"`
	ConsecutiveFailures int               `json:"consecutive_failures,omitempty"`
	LastError           string            `json:"last_error,omitempty"`
}

// handleHealthz reports the router's own health: the fleet fingerprint,
// how many replicas are enrolled, and each replica's state. The "nodes"
// field mirrors tcserve's healthz so load generators can point at a
// router and a replica interchangeably.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	statuses := make([]replicaStatus, 0, len(rt.replicas))
	healthy := 0
	for _, rep := range rt.replicas {
		if rep.state == stateHealthy {
			healthy++
		}
		st := replicaStatus{
			URL:                 rep.url,
			State:               rep.state.String(),
			Fingerprint:         rep.fingerprint,
			Nodes:               rep.nodes,
			Arcs:                rep.arcs,
			ConsecutiveFailures: rep.consecFails,
			LastError:           rep.lastErr,
		}
		if rep.hasIndex {
			st.IndexGeneration = rep.indexGen
		}
		if rep.hasDyn {
			st.Seq = rep.dynSeq
			st.Pending = rep.dynPending
			st.Lagging = rep.lagExcluded
		}
		if len(rep.graphs) > 0 {
			st.Graphs = make(map[string]string, len(rep.graphs))
			for name, g := range rep.graphs {
				st.Graphs[name] = g.Fingerprint
			}
		}
		statuses = append(statuses, st)
	}
	expect, nodes := rt.expect, rt.nodes
	var fleetGraphs map[string]graphIdentity
	if len(rt.fleetGraphs) > 0 {
		fleetGraphs = make(map[string]graphIdentity, len(rt.fleetGraphs))
		for name, g := range rt.fleetGraphs {
			fleetGraphs[name] = g
		}
	}
	rt.mu.RUnlock()
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].URL < statuses[j].URL })
	status := "ok"
	code := http.StatusOK
	if healthy == 0 {
		status = "unavailable"
		code = http.StatusServiceUnavailable
	}
	resp := map[string]any{
		"status":           status,
		"fingerprint":      expect,
		"nodes":            nodes,
		"healthy_replicas": healthy,
		"replicas":         statuses,
	}
	if fleetGraphs != nil {
		resp["graphs"] = fleetGraphs
	}
	writeJSON(w, code, resp)
}

// healthSnapshot extracts the per-replica health bits for /metrics.
func (rt *Router) healthSnapshot() []replicaHealth {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]replicaHealth, len(rt.replicas))
	for i, rep := range rt.replicas {
		out[i] = replicaHealth{url: rep.url, healthy: rep.state == stateHealthy}
	}
	return out
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(rt.met.Prometheus(rt.healthSnapshot())))
}
