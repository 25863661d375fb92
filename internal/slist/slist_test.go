package slist

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

func newStore(t *testing.T, frames int, listPolicy string, numLists int) (*Store, *pagedisk.Disk) {
	t.Helper()
	d := pagedisk.New()
	pol, err := buffer.NewPolicy("lru", frames)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(d, frames, pol)
	lp, err := NewListPolicy(listPolicy)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(pool, "lists", numLists, lp), d
}

func wantList(t *testing.T, s *Store, id int32, want []int32) {
	t.Helper()
	got, err := s.ReadAll(id)
	if err != nil {
		t.Fatalf("ReadAll(%d): %v", id, err)
	}
	if len(got) != len(want) {
		t.Fatalf("list %d = %v (len %d), want len %d", id, got, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list %d[%d] = %d, want %d", id, i, got[i], want[i])
		}
	}
	if s.Len(id) != len(want) {
		t.Fatalf("Len(%d) = %d, want %d", id, s.Len(id), len(want))
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 4)
	if err := s.AppendAll(0, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAll(0, []int32{4}); err != nil {
		t.Fatal(err)
	}
	wantList(t, s, 0, []int32{1, 2, 3, 4})
	wantList(t, s, 1, []int32{42})
	wantList(t, s, 2, nil)
}

func TestPageCapacityMatchesPaper(t *testing.T) {
	// 450 successors per page: 30 blocks of 15 (Section 5.1).
	if BlocksPerPage*BlockEntries != 450 {
		t.Fatalf("page capacity = %d, paper says 450", BlocksPerPage*BlockEntries)
	}
	if headerSize+BlocksPerPage*blockSize != pagedisk.PageSize {
		t.Fatalf("layout does not fill the page: %d != %d",
			headerSize+BlocksPerPage*blockSize, pagedisk.PageSize)
	}
	s, d := newStore(t, 8, "smallest", 2)
	vals := make([]int32, 450)
	for i := range vals {
		vals[i] = int32(i + 1)
	}
	if err := s.AppendAll(0, vals); err != nil {
		t.Fatal(err)
	}
	if got := d.NumPages(s.File()); got != 1 {
		t.Fatalf("450 entries occupy %d pages, want 1", got)
	}
	if err := s.Append(0, 451); err != nil {
		t.Fatal(err)
	}
	if got := d.NumPages(s.File()); got != 2 {
		t.Fatalf("451 entries occupy %d pages, want 2", got)
	}
	wantList(t, s, 0, append(vals, 451))
}

func TestInterListClustering(t *testing.T) {
	// 30 single-entry lists fit exactly on one page.
	s, d := newStore(t, 8, "smallest", 40)
	for id := int32(0); id < 30; id++ {
		if err := s.Append(id, id+1); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.NumPages(s.File()); got != 1 {
		t.Fatalf("30 small lists occupy %d pages, want 1", got)
	}
	if err := s.Append(30, 31); err != nil {
		t.Fatal(err)
	}
	if got := d.NumPages(s.File()); got != 2 {
		t.Fatalf("31st list should open page 2, got %d pages", got)
	}
	for id := int32(0); id <= 30; id++ {
		wantList(t, s, id, []int32{id + 1})
	}
}

func TestClusteringDisabled(t *testing.T) {
	s, d := newStore(t, 8, "smallest", 8)
	s.SetClustering(false)
	for id := int32(0); id < 5; id++ {
		if err := s.Append(id, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.NumPages(s.File()); got != 5 {
		t.Fatalf("unclustered: %d pages, want 5", got)
	}
}

func TestSplitRelocatesVictim(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 4)
	// Fill one page: list 0 gets 29 blocks (435 entries), list 1 one block.
	big := make([]int32, 29*BlockEntries)
	for i := range big {
		big[i] = int32(i + 1)
	}
	if err := s.AppendAll(0, big); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAll(1, []int32{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	// Growing list 0 must split the page and relocate list 1.
	if err := s.Append(0, 999); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Splits != 1 || st.ListsMoved != 1 {
		t.Fatalf("stats = %+v, want one split/move", st)
	}
	if st.EntriesMoved != 3 {
		t.Fatalf("EntriesMoved = %d, want 3", st.EntriesMoved)
	}
	wantList(t, s, 0, append(big, 999))
	wantList(t, s, 1, []int32{7, 8, 9})
}

func TestOverflowWithoutVictims(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 2)
	vals := make([]int32, 1200) // spans 3 pages, sole owner
	for i := range vals {
		vals[i] = int32(i)
	}
	if err := s.AppendAll(0, vals); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Splits != 0 {
		t.Fatalf("sole-owner growth caused %d splits", st.Splits)
	}
	if st.Overflows < 2 {
		t.Fatalf("Overflows = %d, want >= 2", st.Overflows)
	}
	wantList(t, s, 0, vals)
}

func TestSmallestPolicyPicksShortest(t *testing.T) {
	p, _ := NewListPolicy("smallest")
	lens := map[int32]int32{3: 10, 5: 2, 9: 7}
	v := p.Victim([]int32{3, 5, 9}, func(id int32) int32 { return lens[id] }, nil)
	if v != 5 {
		t.Fatalf("smallest picked %d, want 5", v)
	}
}

func TestLargestPolicyPicksLongest(t *testing.T) {
	p, _ := NewListPolicy("largest")
	lens := map[int32]int32{3: 10, 5: 2, 9: 7}
	v := p.Victim([]int32{3, 5, 9}, func(id int32) int32 { return lens[id] }, nil)
	if v != 3 {
		t.Fatalf("largest picked %d, want 3", v)
	}
}

func TestLRUPolicyPicksStalest(t *testing.T) {
	p, _ := NewListPolicy("lru")
	use := map[int32]int64{3: 100, 5: 50, 9: 70}
	v := p.Victim([]int32{3, 5, 9}, nil, func(id int32) int64 { return use[id] })
	if v != 5 {
		t.Fatalf("lru picked %d, want 5", v)
	}
}

func TestRandomPolicyPicksCandidate(t *testing.T) {
	p, _ := NewListPolicy("random")
	for i := 0; i < 10; i++ {
		v := p.Victim([]int32{3, 5, 9}, nil, nil)
		if v != 3 && v != 5 && v != 9 {
			t.Fatalf("random picked non-candidate %d", v)
		}
	}
}

func TestUnknownListPolicy(t *testing.T) {
	if _, err := NewListPolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestAllListPoliciesPreserveContents(t *testing.T) {
	for _, name := range ListPolicyNames() {
		t.Run(name, func(t *testing.T) {
			s, _ := newStore(t, 6, name, 16)
			want := map[int32][]int32{}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 4000; i++ {
				id := int32(rng.Intn(16))
				v := int32(rng.Intn(10000) + 1)
				if err := s.Append(id, v); err != nil {
					t.Fatal(err)
				}
				want[id] = append(want[id], v)
			}
			for id := int32(0); id < 16; id++ {
				wantList(t, s, id, want[id])
			}
		})
	}
}

func TestIteratorReleasesPins(t *testing.T) {
	s, _ := newStore(t, 4, "smallest", 2)
	if err := s.AppendAll(0, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	it := s.NewIterator(0)
	it.Next()
	if got := s.Pool().PinnedFrames(); got != 1 {
		t.Fatalf("mid-iteration pinned frames = %d, want 1", got)
	}
	it.Close()
	if got := s.Pool().PinnedFrames(); got != 0 {
		t.Fatalf("post-close pinned frames = %d, want 0", got)
	}
	// Exhausting the iterator also releases the pin.
	it2 := s.NewIterator(0)
	for {
		if _, ok := it2.Next(); !ok {
			break
		}
	}
	if got := s.Pool().PinnedFrames(); got != 0 {
		t.Fatalf("exhausted iterator pinned frames = %d, want 0", got)
	}
	it2.Close()
}

func TestIteratorEmptyList(t *testing.T) {
	s, _ := newStore(t, 4, "smallest", 1)
	it := s.NewIterator(0)
	if _, ok := it.Next(); ok {
		t.Fatal("Next on empty list returned a value")
	}
	it.Close()
	if it.Err() != nil {
		t.Fatalf("Err = %v", it.Err())
	}
}

func TestClear(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 4)
	if err := s.AppendAll(0, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(0); err != nil {
		t.Fatal(err)
	}
	wantList(t, s, 0, nil)
	// Freed blocks are reusable: a new list lands on the same page.
	if err := s.AppendAll(1, []int32{9}); err != nil {
		t.Fatal(err)
	}
	wantList(t, s, 1, []int32{9})
}

func TestPinList(t *testing.T) {
	s, _ := newStore(t, 8, "smallest", 2)
	vals := make([]int32, 1000) // 3 pages
	for i := range vals {
		vals[i] = int32(i)
	}
	if err := s.AppendAll(0, vals); err != nil {
		t.Fatal(err)
	}
	handles, err := s.PinList(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 3 {
		t.Fatalf("PinList pinned %d pages, want 3", len(handles))
	}
	if got := s.Pool().PinnedFrames(); got != 3 {
		t.Fatalf("pinned frames = %d, want 3", got)
	}
	s.UnpinAll(handles)
	if got := s.Pool().PinnedFrames(); got != 0 {
		t.Fatalf("after UnpinAll pinned frames = %d", got)
	}
}

func TestPinListNoFrames(t *testing.T) {
	s, _ := newStore(t, 4, "smallest", 2)
	vals := make([]int32, 450*5)
	for i := range vals {
		vals[i] = int32(i)
	}
	if err := s.AppendAll(0, vals); err != nil {
		t.Fatal(err)
	}
	_, err := s.PinList(0)
	if !errors.Is(err, buffer.ErrNoFrames) {
		t.Fatalf("err = %v, want ErrNoFrames", err)
	}
	if got := s.Pool().PinnedFrames(); got != 0 {
		t.Fatalf("failed PinList leaked %d pins", got)
	}
}

func TestIOErrorPropagatesThroughAppend(t *testing.T) {
	s, d := newStore(t, 4, "smallest", 2)
	big := make([]int32, 2000)
	if err := s.AppendAll(0, big); err != nil {
		t.Fatal(err)
	}
	d.FailAfter(0)
	err := s.AppendAll(1, big)
	if !errors.Is(err, pagedisk.ErrIOInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	d.FailAfter(-1)
}

func TestTinyPoolPanics(t *testing.T) {
	d := pagedisk.New()
	pol, _ := buffer.NewPolicy("lru", 2)
	pool := buffer.New(d, 2, pol)
	lp, _ := NewListPolicy("smallest")
	defer func() {
		if recover() == nil {
			t.Fatal("NewStore accepted a 2-frame pool")
		}
	}()
	NewStore(pool, "x", 1, lp)
}

// TestStoreMatchesReferenceProperty drives random interleaved appends with a
// tiny buffer pool (forcing evictions and splits) and checks every list
// against an in-memory reference.
func TestStoreMatchesReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nLists = 12
		d := pagedisk.New()
		pol, _ := buffer.NewPolicy("lru", 4)
		pool := buffer.New(d, 4, pol)
		lpName := ListPolicyNames()[rng.Intn(len(ListPolicyNames()))]
		lp, _ := NewListPolicy(lpName)
		s := NewStore(pool, "p", nLists, lp)
		ref := make([][]int32, nLists)
		ops := rng.Intn(3000) + 100
		for i := 0; i < ops; i++ {
			id := int32(rng.Intn(nLists))
			run := rng.Intn(8) + 1
			vals := make([]int32, run)
			for j := range vals {
				vals[j] = int32(rng.Intn(1 << 20))
			}
			if err := s.AppendAll(id, vals); err != nil {
				return false
			}
			ref[id] = append(ref[id], vals...)
		}
		for id := int32(0); id < nLists; id++ {
			got, err := s.ReadAll(id)
			if err != nil || len(got) != len(ref[id]) {
				return false
			}
			for i := range got {
				if got[i] != ref[id][i] {
					return false
				}
			}
		}
		return pool.PinnedFrames() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// buildRandomStore applies a FuzzStoreOps-style tape drawn from seed —
// appends of short and long runs (the long ones force overflow pages),
// clears, and interleaving that forces page splits — to a store over a
// tiny pool. The same seed always builds the same store.
func buildRandomStore(t *testing.T, seed int64, nLists int) (*Store, *pagedisk.Disk) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := pagedisk.New()
	pol, _ := buffer.NewPolicy("lru", 4)
	pool := buffer.New(d, 4, pol)
	lp, _ := NewListPolicy(ListPolicyNames()[rng.Intn(len(ListPolicyNames()))])
	s := NewStore(pool, "p", nLists, lp)
	for i := 0; i < 400; i++ {
		id := int32(rng.Intn(nLists))
		switch op := rng.Intn(20); {
		case op == 0:
			if err := s.Clear(id); err != nil {
				t.Fatal(err)
			}
		default:
			run := rng.Intn(20) + 1
			if op == 1 {
				run = rng.Intn(600) + 1
			}
			vals := make([]int32, run)
			for j := range vals {
				vals[j] = int32(rng.Intn(1<<20)) - 1<<19
			}
			if err := s.AppendAll(id, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, d
}

// TestNextBlockMatchesNext pins that NextBlock is Next a block at a time:
// on random stores with splits and overflow pages, the concatenated blocks
// equal the entry sequence, and both walks cost the same page I/O.
func TestNextBlockMatchesNext(t *testing.T) {
	const nLists = 12
	var splits, overflows int64
	for seed := int64(1); seed <= 30; seed++ {
		byEntry, dEntry := buildRandomStore(t, seed, nLists)
		byBlock, dBlock := buildRandomStore(t, seed, nLists)
		splits += byEntry.Stats().Splits
		overflows += byEntry.Stats().Overflows
		for id := int32(0); id < nLists; id++ {
			want, err := walkNext(byEntry, id)
			if err != nil {
				t.Fatalf("seed %d list %d: Next: %v", seed, id, err)
			}
			got, err := walkBlocks(t, byBlock, id)
			if err != nil {
				t.Fatalf("seed %d list %d: NextBlock: %v", seed, id, err)
			}
			if !equalInt32s(got, want) || len(got) != byEntry.Len(id) {
				t.Fatalf("seed %d list %d: NextBlock yielded %d entries, Next %d, Len %d, or they differ",
					seed, id, len(got), len(want), byEntry.Len(id))
			}
		}
		if dEntry.Stats() != dBlock.Stats() || byEntry.Pool().Stats() != byBlock.Pool().Stats() {
			t.Fatalf("seed %d: walks cost different I/O: Next disk %+v pool %+v, NextBlock disk %+v pool %+v",
				seed, dEntry.Stats(), byEntry.Pool().Stats(), dBlock.Stats(), byBlock.Pool().Stats())
		}
		if byEntry.Pool().PinnedFrames() != 0 || byBlock.Pool().PinnedFrames() != 0 {
			t.Fatalf("seed %d: pins leaked", seed)
		}
	}
	if splits == 0 || overflows == 0 {
		t.Fatalf("random stores made %d splits and %d overflow pages; want both", splits, overflows)
	}
}
