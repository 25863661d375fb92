package slist

import (
	"encoding/binary"
	"testing"

	"tcstudy/internal/buffer"
	"tcstudy/internal/pagedisk"
)

// FuzzStoreOps drives the store with an operation tape decoded from fuzz
// input: appends, clears and reads over a handful of lists with a tiny
// pool, checking contents against an in-memory reference after every read.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 1, 1, 1})
	seed := make([]byte, 300)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, tape []byte) {
		const nLists = 8
		d := pagedisk.New()
		pol, _ := buffer.NewPolicy("lru", 4)
		pool := buffer.New(d, 4, pol)
		lp, _ := NewListPolicy("smallest")
		s := NewStore(pool, "fuzz", nLists, lp)
		ref := make([][]int32, nLists)

		for i := 0; i+1 < len(tape); i += 2 {
			op := tape[i] % 3
			id := int32(tape[i+1] % nLists)
			switch op {
			case 0: // append a value derived from the tape position
				v := int32(binary.LittleEndian.Uint16(append([]byte{tape[i+1]}, byte(i))))
				if err := s.Append(id, v); err != nil {
					t.Fatalf("append: %v", err)
				}
				ref[id] = append(ref[id], v)
			case 1: // clear
				if err := s.Clear(id); err != nil {
					t.Fatalf("clear: %v", err)
				}
				ref[id] = nil
			case 2: // verify
				got, err := s.ReadAll(id)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				if len(got) != len(ref[id]) {
					t.Fatalf("list %d has %d entries, want %d", id, len(got), len(ref[id]))
				}
				for j := range got {
					if got[j] != ref[id][j] {
						t.Fatalf("list %d entry %d = %d, want %d", id, j, got[j], ref[id][j])
					}
				}
			}
		}
		// Final full verification plus pin accounting.
		for id := int32(0); id < nLists; id++ {
			got, err := s.ReadAll(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ref[id]) {
				t.Fatalf("final list %d: %d entries, want %d", id, len(got), len(ref[id]))
			}
		}
		if pool.PinnedFrames() != 0 {
			t.Fatal("pins leaked")
		}
	})
}

// FuzzIteratorCorruptChain points a list head at an arbitrary page image
// and block index, then walks it. The iterator's contract under corruption
// is: terminate, report an error or a bounded result, never panic, never
// leak a pin. Seeds cover a well-formed block, self-referential cycles
// through a partly filled and a full block, and an oversized entry count.
func FuzzIteratorCorruptChain(f *testing.F) {
	var pg pagedisk.Page
	claimBlock(&pg, 0, 1)
	setBlockUsed(&pg, 0, 3)
	for i := 0; i < 3; i++ {
		setBlockEntry(&pg, 0, i, int32(i+10))
	}
	f.Add(append([]byte(nil), pg[:]...), int16(0))
	setBlockNext(&pg, 0, Ref{Page: 0, Blk: 0}) // cycle
	f.Add(append([]byte(nil), pg[:]...), int16(0))
	setBlockUsed(&pg, 0, BlockEntries) // cycle through a full block
	f.Add(append([]byte(nil), pg[:]...), int16(0))
	setBlockUsed(&pg, 0, 200) // used beyond block capacity
	f.Add(append([]byte(nil), pg[:]...), int16(0))
	f.Add([]byte{}, int16(-7))

	f.Fuzz(func(t *testing.T, raw []byte, blk int16) {
		d := pagedisk.New()
		fid := d.CreateFile("fuzz")
		for i := 0; i < 2; i++ {
			p, err := d.Allocate(fid)
			if err != nil {
				t.Fatal(err)
			}
			var img pagedisk.Page
			if off := i * pagedisk.PageSize; off < len(raw) {
				copy(img[:], raw[off:])
			}
			if err := d.Write(fid, p, &img); err != nil {
				t.Fatal(err)
			}
		}
		pol, _ := buffer.NewPolicy("lru", 4)
		pool := buffer.New(d, 4, pol)
		s := &Store{
			pool:     pool,
			file:     fid,
			head:     []Ref{{Page: 0, Blk: blk}},
			tail:     []Ref{nilRef},
			length:   []int32{0},
			lastUse:  []int64{0},
			fillPage: pagedisk.InvalidPage,
		}
		vals, _ := s.ReadAll(0) // must not panic or hang; error is fine
		if max := 2 * BlocksPerPage * BlockEntries; len(vals) > max {
			t.Fatalf("iterator produced %d entries from %d blocks of storage", len(vals), 2*BlocksPerPage)
		}
		if pool.PinnedFrames() != 0 {
			t.Fatal("pins leaked on corrupt chain")
		}
		// Next and NextBlock share one block walk: over the same corrupt
		// chain they must yield the same entries and the same error.
		byEntry, errEntry := walkNext(s, 0)
		byBlock, errBlock := walkBlocks(t, s, 0)
		if !sameErr(errEntry, errBlock) {
			t.Fatalf("Next ended with %v, NextBlock with %v", errEntry, errBlock)
		}
		if !equalInt32s(byEntry, byBlock) {
			t.Fatalf("Next yielded %d entries, NextBlock %d, or they differ", len(byEntry), len(byBlock))
		}
		if pool.PinnedFrames() != 0 {
			t.Fatal("pins leaked on corrupt chain")
		}
	})
}

// walkNext reads list id entry by entry.
func walkNext(s *Store, id int32) ([]int32, error) {
	var it Iterator
	it.Reset(s, id)
	var out []int32
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	it.Close()
	return out, it.Err()
}

// walkBlocks reads list id a block at a time, checking that every block
// it yields is non-empty and within the block capacity.
func walkBlocks(t *testing.T, s *Store, id int32) ([]int32, error) {
	t.Helper()
	var it Iterator
	it.Reset(s, id)
	var out, blk []int32
	for {
		var ok bool
		if blk, ok = it.NextBlock(blk[:0]); !ok {
			break
		}
		if len(blk) == 0 || len(blk) > BlockEntries {
			t.Fatalf("NextBlock yielded a block of %d entries", len(blk))
		}
		out = append(out, blk...)
	}
	it.Close()
	return out, it.Err()
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func equalInt32s(a, b []int32) bool {
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
