package bitmatrix

import "testing"

// FuzzBitMatrixRows fuzzes the block/word indexing math: from a byte
// string of (i, j) coordinate pairs over a fuzzed dimension, build a
// matrix and check round-trip, row-count, transpose and closure
// invariants. The dimension is steered across word boundaries so the
// corpus concentrates on the seams.
func FuzzBitMatrixRows(f *testing.F) {
	f.Add(uint16(64), []byte{0, 0, 1, 1})
	f.Add(uint16(63), []byte{62, 0, 0, 62})
	f.Add(uint16(65), []byte{64, 64, 63, 64, 64, 63})
	f.Add(uint16(1), []byte{0, 0})
	f.Add(uint16(300), []byte{255, 44, 13, 200, 99, 99})
	f.Fuzz(func(t *testing.T, dim uint16, coords []byte) {
		n := int(dim) % 300
		if n == 0 {
			n = 1
		}
		m := New(n)
		type pt struct{ i, j int }
		set := make(map[pt]bool)
		for k := 0; k+1 < len(coords); k += 2 {
			i, j := int(coords[k])%n, int(coords[k+1])%n
			m.Set(i, j)
			set[pt{i, j}] = true
		}

		// Round-trip: exactly the set coordinates read back.
		for p := range set {
			if !m.Has(p.i, p.j) {
				t.Fatalf("n=%d: bit (%d,%d) lost", n, p.i, p.j)
			}
		}
		if got, want := m.Count(), int64(len(set)); got != want {
			t.Fatalf("n=%d: Count=%d, want %d", n, got, want)
		}
		rowTotal := 0
		for i := 0; i < n; i++ {
			rowTotal += m.CountRow(i)
		}
		if rowTotal != len(set) {
			t.Fatalf("n=%d: row counts sum to %d, want %d", n, rowTotal, len(set))
		}

		// Transpose: a bijection on bits, an involution on matrices.
		tr := m.Transpose()
		if tr.Count() != m.Count() {
			t.Fatalf("n=%d: transpose changed bit count %d -> %d", n, m.Count(), tr.Count())
		}
		for p := range set {
			if !tr.Has(p.j, p.i) {
				t.Fatalf("n=%d: transpose lost bit (%d,%d)", n, p.i, p.j)
			}
		}
		if !tr.Transpose().Equal(m) {
			t.Fatalf("n=%d: double transpose is not the identity", n)
		}

		// Closure invariants that hold for any digraph without computing a
		// reference: idempotence (closing a closure changes nothing) and
		// growth (no set bit is ever cleared).
		closed := m.Clone()
		closed.Closure()
		for p := range set {
			if !closed.Has(p.i, p.j) {
				t.Fatalf("n=%d: closure cleared input bit (%d,%d)", n, p.i, p.j)
			}
		}
		again := closed.Clone()
		again.Closure()
		if !again.Equal(closed) {
			t.Fatalf("n=%d: closure is not idempotent", n)
		}

		// The DAG sweep on the pattern's strict upper triangle (acyclic by
		// construction, descending index reverse-topological) must match the
		// general kernel and spend at most one union per arc.
		upper := New(n)
		for p := range set {
			if p.j > p.i {
				upper.Set(p.i, p.j)
			}
		}
		wantUpper := upper.Clone()
		wantUpper.Closure()
		order := make([]int, n)
		for i := range order {
			order[i] = n - 1 - i
		}
		gotUpper := upper.Clone()
		st := gotUpper.ClosureDAG(order)
		if !gotUpper.Equal(wantUpper) {
			t.Fatalf("n=%d: ClosureDAG differs from Warren closure on the upper triangle", n)
		}
		if st.RowUnions > upper.Count() {
			t.Fatalf("n=%d: DAG sweep did %d unions for %d arcs", n, st.RowUnions, upper.Count())
		}
	})
}
