package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
)

// The paper-scale graph every workload serves (graphgen n=2000, F=5,
// l=200, generator seed 1 as tcserve's default). The graph is the dataset
// and stays fixed; the workload seed varies only the requests, so runs
// with different seeds measure the same database.
const (
	nodes     = 2000
	outDegree = 5
	locality  = 200
	graphSeed = 1
)

// Workload names.
const (
	reachHot    = "reach-hot"
	queryMix    = "query-mix"
	writeMix    = "write-mix"
	routedQuery = "routed-query"
)

// clients bounds the load generator: at most two sender goroutines and two
// connections, as many as the 2-CPU machine the benchmark was tuned on
// has CPUs; the in-process servers share them with the generator.
const clients = 2

// Open-loop rates, fixed so that a faster or slower program receives the
// same offered load. query-mix runs at about a quarter of the capacity
// measured on a 2-CPU x86-64 host (go1.24: ~38 queries/s with two
// closed-loop clients); at half capacity, queueing behind the server's
// batch dispatcher made median latency swing twofold between runs.
// write-mix keeps its write rate low enough that a generational rebuild
// (~60 ms) usually completes between closure-shrinking deletes, so runs
// cycle through many rebuilds without piling up a backlog.
const (
	queryMixRate  = 10.0 // POST /v1/query per second
	writeMixWrite = 5.0  // POST /v1/arc batches per second
	batchOps      = 4    // mutation ops per batch
)

// Pool sizes. query-mix draws from a pool far larger than the 256-entry
// result cache, so most queries miss; routed-query draws from a pool that
// fits in the replicas' caches, so steady state is mostly hits.
const (
	queryPoolSize  = 50000
	routedPoolSize = 128
	zipfExponent   = 0.8
)

type opKind uint8

const (
	opReach opKind = iota
	opQuery
	opArc
)

// op is one request of a workload. due is the send time relative to the
// start of an open-loop schedule (unused in closed loops). ref indexes the
// query pool (opQuery) or the batch list (opArc).
type op struct {
	kind     opKind
	due      time.Duration
	src, dst int32
	ref      int32
}

// query is one pool entry: an algorithm and its source set.
type query struct {
	Alg     string  `json:"algorithm"`
	Sources []int32 `json:"sources"`
}

// inputs is everything a workload sends, generated from the seed before
// any timing starts: a list closed-loop clients cycle through, and a
// schedule open-loop senders keep.
type inputs struct {
	loop    []op
	sched   []op
	queries []query
	bodies  [][]byte // request body per query pool entry referenced by ops
	batches [][]dynamic.Op
	batchJS [][]byte
}

// zipf draws ranks 0..n-1 with P(k) proportional to (k+1)^-s. Unlike
// math/rand.Zipf it accepts exponents below 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var t float64
	for k := range cdf {
		t += math.Pow(float64(k+1), -s)
		cdf[k] = t
	}
	for k := range cdf {
		cdf[k] /= t
	}
	return zipf{cdf}
}

func (z zipf) draw(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// nodeSampler draws Zipf-skewed node ids; the permutation spreads the hot
// ranks over the graph instead of concentrating them on low node ids.
type nodeSampler struct {
	z    zipf
	perm []int
}

func newNodeSampler(r *rand.Rand) nodeSampler {
	return nodeSampler{z: newZipf(nodes, zipfExponent), perm: r.Perm(nodes)}
}

func (ns nodeSampler) draw(r *rand.Rand) int32 { return int32(ns.perm[ns.z.draw(r)] + 1) }

// distinctNodes draws k distinct nodes uniformly from 1..nodes.
func distinctNodes(r *rand.Rand, k int) []int32 {
	seen := make(map[int32]bool, k)
	out := make([]int32, 0, k)
	for len(out) < k {
		v := int32(r.Intn(nodes) + 1)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// query-mix classes: every algorithm with every source-count bucket.
var (
	queryAlgs    = [...]string{"srch", "bj", "jkb2", "btc"}
	queryBuckets = [...][2]int{{1, 1}, {2, 4}, {5, 8}, {9, 16}}
)

const queryClasses = len(queryAlgs) * len(queryBuckets)

// stratifiedPool builds query-mix's pool: entry k belongs to class
// k mod queryClasses, which fixes its algorithm and source-count bucket;
// the seed picks the count within the bucket and the sources. Requests
// take their classes in shuffled rounds that visit every class once, and
// a Zipf-skewed entry within the class, so every run of a few hundred
// queries has the same mix of query shapes and the seed changes only
// which sources are asked, keeping run-to-run spread low.
func stratifiedPool(r *rand.Rand) []query {
	pool := make([]query, queryPoolSize)
	for k := range pool {
		b := queryBuckets[(k/len(queryAlgs))%len(queryBuckets)]
		pool[k] = query{Alg: queryAlgs[k%len(queryAlgs)], Sources: distinctNodes(r, b[0]+r.Intn(b[1]-b[0]+1))}
	}
	return pool
}

// routedPool builds routed-query's pool: srch and jkb2 alternate, and
// source counts cycle through 4..8, so every run's pool has the same mix
// of shapes and the seed picks the sources.
func routedPool(r *rand.Rand) []query {
	algs := [...]string{"srch", "jkb2"}
	pool := make([]query, routedPoolSize)
	for k := range pool {
		pool[k] = query{Alg: algs[k%len(algs)], Sources: distinctNodes(r, 4+(k/len(algs))%5)}
	}
	return pool
}

// schedule returns the due times of a fixed-interval open loop at rate
// per second over d, starting at a random phase so two streams merged into
// one schedule do not fire in lockstep.
func schedule(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	step := time.Duration(float64(time.Second) / rate)
	var out []time.Duration
	for t := time.Duration(r.Int63n(int64(step))); t < d; t += step {
		out = append(out, t)
	}
	return out
}

// genInputs builds a workload's requests for a run of total length d
// (warm-up included).
func genInputs(name string, seed int64, arcs []graph.Arc, d time.Duration) (*inputs, error) {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	in := &inputs{}
	switch name {
	case reachHot:
		in.loop = reachPairs(r)
	case queryMix:
		in.queries = stratifiedPool(r)
		z := newZipf(queryPoolSize/queryClasses, zipfExponent)
		// The sequence of query shapes and its timing is the workload's
		// and the same in every run; the seed picks the queries.
		shapes := rand.New(rand.NewSource(graphSeed))
		var classes []int
		for _, due := range schedule(shapes, queryMixRate, d) {
			if len(classes) == 0 {
				classes = shapes.Perm(queryClasses)
			}
			c := classes[0]
			classes = classes[1:]
			in.sched = append(in.sched, op{kind: opQuery, due: due, ref: int32(c + queryClasses*z.draw(r))})
		}
	case routedQuery:
		in.queries = routedPool(r)
		in.loop = make([]op, 1<<16)
		for i := range in.loop {
			in.loop[i] = op{kind: opQuery, ref: int32(r.Intn(routedPoolSize))}
		}
	case writeMix:
		in.loop = reachPairs(r)
		// The mutation stream is the dataset's evolution and, like the
		// graph, the same in every run; the seed picks the reads. Which
		// deletes shrink the closure sets how often the index rebuilds:
		// with a seeded stream, read throughput spread by 21% over ten
		// seeds (interquartile range over median), with this one by 12%.
		wr := rand.New(rand.NewSource(graphSeed))
		wg := newWriteGen(arcs)
		for _, due := range schedule(wr, writeMixWrite, d) {
			in.sched = append(in.sched, op{kind: opArc, due: due, ref: int32(len(in.batches))})
			in.batches = append(in.batches, wg.batch(wr))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	in.bodies = make([][]byte, len(in.queries))
	for _, o := range append(in.loop, in.sched...) {
		if o.kind == opQuery && in.bodies[o.ref] == nil {
			b, err := json.Marshal(in.queries[o.ref])
			if err != nil {
				return nil, err
			}
			in.bodies[o.ref] = b
		}
	}
	for _, b := range in.batches {
		js, err := json.Marshal(dynamic.Batch{Ops: b})
		if err != nil {
			return nil, err
		}
		in.batchJS = append(in.batchJS, js)
	}
	return in, nil
}

// reachPairs draws Zipf-skewed source and destination nodes.
func reachPairs(r *rand.Rand) []op {
	ns := newNodeSampler(r)
	pairs := make([]op, 1<<19)
	for i := range pairs {
		pairs[i] = op{kind: opReach, src: ns.draw(r), dst: ns.draw(r)}
	}
	return pairs
}

// writeGen produces write-mix batches against a simulated copy of the
// graph. Each op deletes a present arc (30%), inserts an absent arc
// within the generator's locality window (30%; one in ten of those points
// backwards and can close a cycle), or re-sends a present arc, which the
// service logs as a no-op (40%). Applied inserts balance applied deletes,
// so the arc count stays level over a run.
type writeGen struct {
	arcs []graph.Arc
	pos  map[graph.Arc]int
}

func newWriteGen(base []graph.Arc) *writeGen {
	g := &writeGen{pos: make(map[graph.Arc]int, len(base))}
	for _, a := range base {
		g.add(a)
	}
	return g
}

func (g *writeGen) add(a graph.Arc) {
	g.pos[a] = len(g.arcs)
	g.arcs = append(g.arcs, a)
}

func (g *writeGen) remove(i int) graph.Arc {
	a := g.arcs[i]
	last := g.arcs[len(g.arcs)-1]
	g.arcs[i] = last
	g.pos[last] = i
	g.arcs = g.arcs[:len(g.arcs)-1]
	delete(g.pos, a)
	return a
}

func (g *writeGen) batch(r *rand.Rand) []dynamic.Op {
	ops := make([]dynamic.Op, 0, batchOps)
	for len(ops) < batchOps {
		u := r.Float64()
		switch {
		case u < 0.3 && len(g.arcs) > 0:
			a := g.remove(r.Intn(len(g.arcs)))
			ops = append(ops, dynamic.Op{Op: dynamic.OpDelete, From: a.From, To: a.To})
		case u < 0.6:
			i := int32(1 + r.Intn(nodes-1))
			hi := i + locality
			if hi > nodes {
				hi = nodes
			}
			j := i + 1 + int32(r.Intn(int(hi-i)))
			a := graph.Arc{From: i, To: j}
			if r.Intn(10) == 0 {
				a = graph.Arc{From: j, To: i}
			}
			if _, ok := g.pos[a]; ok {
				continue
			}
			g.add(a)
			ops = append(ops, dynamic.Op{Op: dynamic.OpInsert, From: a.From, To: a.To})
		case len(g.arcs) > 0:
			a := g.arcs[r.Intn(len(g.arcs))]
			ops = append(ops, dynamic.Op{Op: dynamic.OpInsert, From: a.From, To: a.To})
		}
	}
	return ops
}
