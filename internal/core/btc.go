package core

import (
	"tcstudy/internal/bitset"
	"tcstudy/internal/slist"
)

// The BTC computation phase (Section 3.1): successor lists are expanded in
// reverse topological order; each node's list is unioned with the *full*
// lists of its immediate successors only (the immediate successor
// optimization), and a child already reachable through an earlier child is
// marked and skipped (the marking optimization — on topologically ordered
// children, equivalent to the transitive reduction).

// expander bundles the per-node bit vectors, allocated once per run and
// cleared between nodes (the paper's cheap bit-vector duplicate
// elimination, Section 6.1).
type expander struct {
	member    *bitset.Set // current members of the list under expansion
	childSet  *bitset.Set // immediate children of the node
	marked    *bitset.Set // children marked redundant by earlier unions
	appendBuf []int32
	childBuf  []int32        // reused child-prefix buffer
	blockBuf  []int32        // reused block buffer for Iterator.NextBlock
	it        slist.Iterator // reused list iterator
}

func newExpander(n int) *expander {
	return &expander{
		member:   bitset.New(n + 1),
		childSet: bitset.New(n + 1),
		marked:   bitset.New(n + 1),
	}
}

func (x *expander) reset() {
	x.member.Clear()
	x.childSet.Clear()
	x.marked.Clear()
}

// loadChildren reads the immediate-successor prefix of node v's list (the
// first childCount entries, which appends never disturb) and primes the
// expander's member and child sets.
func (e *engine) loadChildren(v int32, exp *expander) ([]int32, error) {
	exp.reset()
	k := e.childCount[v]
	children := exp.childBuf[:0]
	it := &exp.it
	it.Reset(e.store, v)
	for int32(len(children)) < k {
		var ok bool
		if children, ok = it.NextBlock(children); !ok {
			break
		}
	}
	it.Close()
	if int32(len(children)) > k {
		children = children[:k]
	}
	e.met.SuccessorsFetched += int64(len(children))
	for _, c := range children {
		exp.member.Add(c)
		exp.childSet.Add(c)
	}
	exp.childBuf = children
	return children, it.Err()
}

// unionInto unions the full successor list of child j into node v's list.
// It reads every entry of S_j (counting successor fetches and generated
// tuples), eliminates duplicates with the member bit vector, marks any
// not-yet-processed children of v that the union reaches, and appends the
// new successors to S_v.
func (e *engine) unionInto(v, j int32, exp *expander) error {
	e.met.ListUnions++
	e.met.noteUnmarked(e.levels[v] - e.levels[j])
	exp.appendBuf = exp.appendBuf[:0]
	it := &exp.it
	it.Reset(e.store, j)
	for {
		blk, ok := it.NextBlock(exp.blockBuf[:0])
		exp.blockBuf = blk
		if !ok {
			break
		}
		e.met.SuccessorsFetched += int64(len(blk))
		e.met.TuplesGenerated += int64(len(blk))
		for _, u := range blk {
			if exp.childSet.Has(u) {
				exp.marked.Add(u)
			}
			if exp.member.TestAndAdd(u) {
				e.met.Duplicates++
				continue
			}
			exp.appendBuf = append(exp.appendBuf, u)
		}
	}
	it.Close()
	if err := it.Err(); err != nil {
		return err
	}
	return e.store.AppendAll(v, exp.appendBuf)
}

// expandNode runs the BTC expansion of one node: children are considered
// in topological order (their stored order); marked children are skipped.
func (e *engine) expandNode(v int32, exp *expander) error {
	children, err := e.loadChildren(v, exp)
	if err != nil {
		return err
	}
	for _, j := range children {
		e.met.ArcsConsidered++
		if !e.cfg.DisableMarking && exp.marked.Has(j) {
			e.met.ArcsMarked++
			continue
		}
		if err := e.unionInto(v, j, exp); err != nil {
			return err
		}
	}
	return nil
}

// runBTC executes the base algorithm end to end.
func (e *engine) runBTC() error {
	if err := e.timedPhase(true, func() error {
		adj, err := e.discover()
		if err != nil {
			return err
		}
		return e.buildLists(adj)
	}); err != nil {
		return err
	}
	if err := e.timedPhase(false, func() error {
		exp := newExpander(e.db.n)
		for i := len(e.order) - 1; i >= 0; i-- {
			if err := e.expandNode(e.order[i], exp); err != nil {
				return err
			}
		}
		return e.finalizeFlat()
	}); err != nil {
		return err
	}
	return e.collectFlatAnswer()
}

// finalizeFlat tallies the tuple counts and writes the result out: for a
// full closure every expanded list is flushed; for a selection only the
// source-node lists are written and the rest of the intermediate store is
// dropped (Section 4: "only the expanded lists of the query source nodes
// are written out").
func (e *engine) finalizeFlat() error {
	for _, v := range e.order {
		e.met.DistinctTuples += int64(e.store.Len(v))
	}
	if e.q.IsFull() {
		e.met.SourceTuples = e.met.DistinctTuples
		return e.pool.FlushFile(e.store.File())
	}
	for _, s := range e.q.Sources {
		e.met.SourceTuples += int64(e.store.Len(s))
		if err := e.store.FlushList(s); err != nil {
			return err
		}
	}
	e.store.DiscardAll()
	return nil
}

// collectFlatAnswer materializes the answer sets after measurement ends.
// For a full closure every magic node's list is the answer; for a
// selection the source lists are. Entries are already duplicate-free.
func (e *engine) collectFlatAnswer() error {
	e.answer = make(map[int32][]int32)
	var nodes []int32
	if e.q.IsFull() {
		nodes = e.order
	} else {
		nodes = e.q.Sources
	}
	for _, v := range nodes {
		vals, err := e.store.ReadAll(v)
		if err != nil {
			return err
		}
		e.answer[v] = vals
	}
	return nil
}
