package core

import "tcstudy/internal/bitset"

// The Spanning Tree algorithm (Sections 3.5 and 4.1): successor lists carry
// structure — each parent (internal node) is stored once, negated, followed
// by a list of its children. When the tree of child j is unioned into the
// tree of node v, a group whose parent's subtree is already known to be
// present in S_v is skipped: its successors are not fetched and no
// duplicates are generated for them. As the paper observes (Section 6.2),
// the skipped *successor fetches* rarely translate into skipped *page*
// reads, because the group's page is almost always touched anyway; our
// encoding makes that explicit — skipped entries are scanned past on
// already-resident pages and simply not counted as tuple I/O.

// treeExpander augments the flat expander with the set of nodes whose
// complete subtree is known to be present in the list under expansion.
type treeExpander struct {
	*expander
	complete *bitset.Set
	touched  []int32 // nodes reached by the current union, completed after it
}

func newTreeExpander(n int) *treeExpander {
	return &treeExpander{expander: newExpander(n), complete: bitset.New(n + 1)}
}

func (x *treeExpander) reset() {
	x.expander.reset()
	x.complete.Clear()
}

// loadTreeChildren primes the expander from the initial tree of v, which is
// the single group (-v, children...).
func (e *engine) loadTreeChildren(v int32, exp *treeExpander) ([]int32, error) {
	exp.reset()
	k := e.childCount[v]
	children := exp.childBuf[:0]
	it := &exp.it
	it.Reset(e.store, v)
	for int32(len(children)) < k {
		blk, ok := it.NextBlock(exp.blockBuf[:0])
		exp.blockBuf = blk
		if !ok {
			break
		}
		for _, c := range blk {
			if int32(len(children)) == k {
				break
			}
			e.met.SuccessorsFetched++
			if c < 0 { // the root marker -v
				continue
			}
			children = append(children, c)
			exp.member.Add(c)
			exp.childSet.Add(c)
		}
	}
	it.Close()
	exp.childBuf = children
	return children, it.Err()
}

// unionTree merges the successor tree of child j into the tree of v.
func (e *engine) unionTree(v, j int32, exp *treeExpander) error {
	e.met.ListUnions++
	e.met.noteUnmarked(e.levels[v] - e.levels[j])
	exp.appendBuf = exp.appendBuf[:0]
	exp.touched = exp.touched[:0]

	it := &exp.it
	it.Reset(e.store, j)
	skipping := false   // inside a group whose parent's subtree is present
	groupOpen := false  // a group marker was emitted to appendBuf
	var curParent int32 // parent of the group being read
	for {
		blk, ok := it.NextBlock(exp.blockBuf[:0])
		exp.blockBuf = blk
		if !ok {
			break
		}
		for _, raw := range blk {
			if raw < 0 {
				// New group. Skip it if the parent's subtree was already
				// present before this union began (the paper's "no need
				// to read any successors of j in S_g" saving).
				curParent = -raw
				skipping = exp.complete.Has(curParent)
				if !skipping {
					exp.touched = append(exp.touched, curParent)
				}
				groupOpen = false
				continue
			}
			if skipping {
				continue // scanned past, not fetched: no tuple I/O counted
			}
			e.met.SuccessorsFetched++
			e.met.TuplesGenerated++
			u := raw
			if exp.childSet.Has(u) {
				exp.marked.Add(u)
			}
			exp.touched = append(exp.touched, u)
			if exp.member.TestAndAdd(u) {
				e.met.Duplicates++
				continue
			}
			e.posCount[v]++
			if !groupOpen {
				exp.appendBuf = append(exp.appendBuf, -curParent)
				groupOpen = true
			}
			exp.appendBuf = append(exp.appendBuf, u)
		}
	}
	it.Close()
	if err := it.Err(); err != nil {
		return err
	}
	if err := e.store.AppendAll(v, exp.appendBuf); err != nil {
		return err
	}
	// Every node the union visited (and every node it skipped over) now
	// has its full subtree in S_v. Completion is recorded only after the
	// union so that groups within S_j itself were not wrongly skipped.
	for _, u := range exp.touched {
		exp.complete.Add(u)
	}
	exp.complete.Add(j)
	return nil
}

// expandTreeNode expands node v's successor tree.
func (e *engine) expandTreeNode(v int32, exp *treeExpander) error {
	children, err := e.loadTreeChildren(v, exp)
	if err != nil {
		return err
	}
	e.posCount[v] += int32(len(children))
	for _, j := range children {
		e.met.ArcsConsidered++
		// A child whose subtree arrived through an earlier union is
		// exactly a marked (redundant) arc.
		if !e.cfg.DisableMarking && exp.complete.Has(j) {
			e.met.ArcsMarked++
			continue
		}
		if err := e.unionTree(v, j, exp); err != nil {
			return err
		}
	}
	return nil
}

// runSPN executes the Spanning Tree algorithm.
func (e *engine) runSPN() error {
	if err := e.timedPhase(true, func() error {
		adj, err := e.discover()
		if err != nil {
			return err
		}
		return e.buildListsMode(adj, true)
	}); err != nil {
		return err
	}
	e.posCount = make([]int32, e.db.n+1)
	if err := e.timedPhase(false, func() error {
		exp := newTreeExpander(e.db.n)
		for i := len(e.order) - 1; i >= 0; i-- {
			if err := e.expandTreeNode(e.order[i], exp); err != nil {
				return err
			}
		}
		return e.finalizeTree()
	}); err != nil {
		return err
	}
	return e.collectTreeAnswer()
}

// finalizeTree mirrors finalizeFlat with tree-aware tuple accounting: the
// materialized result tuples are the positive entries; parent markers are
// the structural overhead that makes the trees larger than flat lists.
func (e *engine) finalizeTree() error {
	for _, v := range e.order {
		e.met.DistinctTuples += int64(e.posCount[v])
	}
	if e.q.IsFull() {
		e.met.SourceTuples = e.met.DistinctTuples
		return e.pool.FlushFile(e.store.File())
	}
	for _, s := range e.q.Sources {
		e.met.SourceTuples += int64(e.posCount[s])
		if err := e.store.FlushList(s); err != nil {
			return err
		}
	}
	e.store.DiscardAll()
	return nil
}

// collectTreeAnswer extracts successor sets from the stored trees: every
// node of the tree appears exactly once as a positive entry.
func (e *engine) collectTreeAnswer() error {
	e.answer = make(map[int32][]int32)
	var nodes []int32
	if e.q.IsFull() {
		nodes = e.order
	} else {
		nodes = e.q.Sources
	}
	for _, v := range nodes {
		raw, err := e.store.ReadAll(v)
		if err != nil {
			return err
		}
		succ := make([]int32, 0, len(raw))
		for _, u := range raw {
			if u > 0 {
				succ = append(succ, u)
			}
		}
		e.answer[v] = succ
	}
	return nil
}
