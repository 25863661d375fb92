package main

import (
	"fmt"
	"sort"

	"tcstudy/internal/chaos"
	"tcstudy/internal/dynamic"
	"tcstudy/internal/graph"
)

// oracle is the BFS closure of the generated graph, from chaos.Oracle,
// as one bit row per node for constant-time reach checks. A node reaches
// itself only through a cycle, as in the engine's closure.
type oracle struct {
	rows  [][]uint64
	count []int
}

func newOracle(n int, arcs []graph.Arc) *oracle {
	words := (n + 64) / 64
	o := &oracle{rows: make([][]uint64, n+1), count: make([]int, n+1)}
	for s, reach := range chaos.Oracle(n, arcs, nil) {
		row := make([]uint64, words)
		for _, v := range reach {
			row[v/64] |= 1 << (v % 64)
		}
		o.rows[s], o.count[s] = row, len(reach)
	}
	return o
}

func (o *oracle) reach(s, d int32) bool { return o.rows[s][d/64]&(1<<(d%64)) != 0 }

// checkCounts compares a query answer's successor counts with the oracle:
// every source present, with its exact closure size, and nothing else.
func (o *oracle) checkCounts(sources []int32, got map[int32]int) bool {
	distinct := make(map[int32]bool, len(sources))
	for _, s := range sources {
		distinct[s] = true
		if c, ok := got[s]; !ok || c != o.count[s] {
			return false
		}
	}
	return len(got) == len(distinct)
}

// readAt is one write-mix read as answered: the mutation sequence the
// server says the answer reflects, and the answer.
type readAt struct {
	src, dst  int32
	seq       int64
	reachable bool
}

// checkWrites replays the acknowledged batches in sequence order over the
// benchmark's own copy of the base graph and checks every read against a
// BFS of the graph as of the sequence number its answer reflects. It
// returns the number of wrong reads and the graph after the last batch.
func checkWrites(base []graph.Arc, batches map[int64][]dynamic.Op, reads []readAt) (wrong int, final []graph.Arc, err error) {
	adj := make([]map[int32]bool, nodes+1)
	for i := range adj {
		adj[i] = make(map[int32]bool)
	}
	for _, a := range base {
		adj[a.From][a.To] = true
	}
	last := int64(len(batches))
	for seq := int64(1); seq <= last; seq++ {
		if _, ok := batches[seq]; !ok {
			return 0, nil, fmt.Errorf("write-mix: %d batches acknowledged but none has sequence number %d", last, seq)
		}
	}
	applied := int64(0)
	advance := func(to int64) {
		for ; applied < to; applied++ {
			for _, o := range batches[applied+1] {
				if o.Op == dynamic.OpInsert {
					adj[o.From][o.To] = true
				} else {
					delete(adj[o.From], o.To)
				}
			}
		}
	}
	arcs := func() []graph.Arc {
		var out []graph.Arc
		for u := int32(1); u <= nodes; u++ {
			for v := range adj[u] {
				out = append(out, graph.Arc{From: u, To: v})
			}
		}
		return out
	}

	sort.Slice(reads, func(i, j int) bool { return reads[i].seq < reads[j].seq })
	for i := 0; i < len(reads); {
		seq := reads[i].seq
		if seq > last {
			return 0, nil, fmt.Errorf("write-mix: a read reflects sequence %d, past the last acknowledged batch %d", seq, last)
		}
		j := i
		var sources []int32
		for ; j < len(reads) && reads[j].seq == seq; j++ {
			sources = append(sources, reads[j].src)
		}
		advance(seq)
		closure := chaos.Oracle(nodes, arcs(), sources)
		for ; i < j; i++ {
			r := reads[i]
			reach := closure[r.src]
			k := sort.Search(len(reach), func(k int) bool { return reach[k] >= r.dst })
			if r.reachable != (k < len(reach) && reach[k] == r.dst) {
				wrong++
			}
		}
	}
	advance(last)
	final = arcs()
	sortArcs(final)
	return wrong, final, nil
}

func sortArcs(a []graph.Arc) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].From != a[j].From {
			return a[i].From < a[j].From
		}
		return a[i].To < a[j].To
	})
}

func sameArcs(a, b []graph.Arc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
