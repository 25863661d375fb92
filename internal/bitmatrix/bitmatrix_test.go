package bitmatrix

import (
	"math/rand"
	"testing"
)

// naiveClosure is the reference: repeated relational squaring over a bool
// matrix until fixpoint. Deliberately shares nothing with the kernels —
// not even the bit packing — so agreement means the answer is right.
func naiveClosure(n int, has func(i, j int) bool) [][]bool {
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			reach[i][j] = has(i, j)
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !reach[i][j] {
					continue
				}
				for k := 0; k < n; k++ {
					if reach[j][k] && !reach[i][k] {
						reach[i][k] = true
						changed = true
					}
				}
			}
		}
	}
	return reach
}

// randomMatrix fills an n×n matrix with the given arc probability.
func randomMatrix(n int, prob float64, seed int64) *Matrix {
	m := New(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < prob {
				m.Set(i, j)
			}
		}
	}
	return m
}

func checkAgainstNaive(t *testing.T, m *Matrix, closed *Matrix, label string) {
	t.Helper()
	want := naiveClosure(m.N(), m.Has)
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if closed.Has(i, j) != want[i][j] {
				t.Fatalf("%s: n=%d: closure bit (%d,%d)=%t, reference says %t",
					label, m.N(), i, j, closed.Has(i, j), want[i][j])
			}
		}
	}
}

// TestClosureAgainstNaive pins Warren's sweep against the bool-matrix
// reference over a grid of sizes and densities, including cyclic inputs:
// it is the oracle the DAG sweep is checked against, so it must be exact
// on any digraph.
func TestClosureAgainstNaive(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 17, 63, 64, 65, 130}
	probs := []float64{0, 0.03, 0.15, 0.5}
	for _, n := range sizes {
		for _, p := range probs {
			base := randomMatrix(n, p, int64(n)*1000+int64(p*100))
			m := base.Clone()
			m.Closure()
			checkAgainstNaive(t, base, m, "warren")
		}
	}
}

// randomDAGMatrix fills only the strict upper triangle, so ascending index
// is a topological order (every bit points forward).
func randomDAGMatrix(n int, prob float64, seed int64) *Matrix {
	m := New(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < prob {
				m.Set(i, j)
			}
		}
	}
	return m
}

// TestClosureDAGAgainstWarren pins the one-union-per-arc DAG sweep to the
// general Warren kernel on random acyclic matrices, through an explicit
// reverse-topological order, through nil order on backward-pointing
// matrices, and with diagonal self-loop bits present.
func TestClosureDAGAgainstWarren(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		n := 5 + int(seed)*17
		for _, p := range []float64{0.02, 0.1, 0.4} {
			base := randomDAGMatrix(n, p, seed*10+int64(p*100))
			if seed%3 == 0 {
				base.Set(int(seed)%n, int(seed)%n) // a self-loop survives closure
			}
			want := base.Clone()
			want.Closure()

			// Upper-triangular bits point forward, so descending index is
			// reverse-topological.
			order := make([]int, n)
			for i := range order {
				order[i] = n - 1 - i
			}
			got := base.Clone()
			st := got.ClosureDAG(order)
			if !got.Equal(want) {
				t.Fatalf("seed=%d n=%d p=%.2f: ClosureDAG differs from Warren closure", seed, n, p)
			}
			if st.RowUnions > base.Count() {
				t.Fatalf("seed=%d n=%d: DAG sweep did %d unions for %d arcs — more than one per arc",
					seed, n, st.RowUnions, base.Count())
			}

			// The transpose's bits all point backward: nil order (ascending
			// rows) must close it; compare through the transpose identity.
			tGot := base.Transpose()
			tGot.ClosureDAG(nil)
			if !tGot.Equal(want.Transpose()) {
				t.Fatalf("seed=%d n=%d p=%.2f: ClosureDAG(nil) on transpose differs", seed, n, p)
			}
		}
	}
}

// TestClosureStatsDeterministic: repeated runs of the same kernel on the
// same matrix must report identical work counters (the engine folds them
// into its deterministic metric record).
func TestClosureStatsDeterministic(t *testing.T) {
	base := randomMatrix(100, 0.1, 7)
	a, b := base.Clone(), base.Clone()
	sa, sb := a.Closure(), b.Closure()
	if sa != sb {
		t.Fatalf("stats differ between identical runs: %+v vs %+v", sa, sb)
	}
	if sa.RowUnions == 0 || sa.BitsDriving == 0 {
		t.Fatalf("stats empty (%+v) on a matrix that needs unions", sa)
	}
	dag := randomDAGMatrix(100, 0.1, 7).Transpose() // bits point backward: nil order applies
	c, d := dag.Clone(), dag.Clone()
	if sc, sd := c.ClosureDAG(nil), d.ClosureDAG(nil); sc != sd {
		t.Fatalf("DAG sweep stats differ between identical runs: %+v vs %+v", sc, sd)
	}
}

// TestWordBoundaries exercises the block/word indexing math at the exact
// 64-bit word seams, mirroring internal/bitset's boundary battery: set the
// last and first bits around every boundary of n = 63, 64, 65 and check
// round-trips, row counts and transposes.
func TestWordBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		m := New(n)
		var edge []int
		seen := map[int]bool{}
		for _, c := range []int{0, 62, 63, 64, n - 1} {
			if c >= 0 && c < n && !seen[c] {
				seen[c] = true
				edge = append(edge, c)
			}
		}
		for _, i := range edge {
			for _, j := range edge {
				if m.Has(i, j) {
					t.Fatalf("n=%d: bit (%d,%d) set in empty matrix", n, i, j)
				}
				m.Set(i, j)
				if !m.Has(i, j) {
					t.Fatalf("n=%d: bit (%d,%d) lost after Set", n, i, j)
				}
			}
		}
		if got, want := m.Count(), int64(len(edge)*len(edge)); got != want {
			t.Fatalf("n=%d: Count=%d after %d sets", n, got, want)
		}
		tr := m.Transpose()
		for _, i := range edge {
			for _, j := range edge {
				if !tr.Has(j, i) {
					t.Fatalf("n=%d: transpose lost bit (%d,%d)", n, i, j)
				}
			}
		}
		if !tr.Transpose().Equal(m) {
			t.Fatalf("n=%d: double transpose is not the identity", n)
		}
	}
}

// TestClosureTransposeCommutes: closing the transpose equals transposing
// the closure (successor sets vs predecessor sets of the same reachability
// relation).
func TestClosureTransposeCommutes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n := 30 + int(seed)*11
		base := randomMatrix(n, 0.07, 100+seed)

		viaTranspose := base.Transpose()
		viaTranspose.Closure()

		closed := base.Clone()
		closed.Closure()

		if !viaTranspose.Equal(closed.Transpose()) {
			t.Fatalf("seed=%d n=%d: closure(transpose) != transpose(closure)", seed, n)
		}
	}
}

// TestRowAliasing: Row hands out views into the matrix storage; writing
// through Set must be visible in a previously fetched row slice.
func TestRowAliasing(t *testing.T) {
	m := New(70)
	row := m.Row(3)
	m.Set(3, 68)
	if row[1]&(1<<4) == 0 {
		t.Fatal("Row slice does not alias matrix storage")
	}
}

// TestFitsThreshold pins the selection rule's boundary behaviour on every
// edge the planner and engine rely on.
func TestFitsThreshold(t *testing.T) {
	cases := []struct {
		n, arcs int
		want    bool
	}{
		{0, 0, false},                         // empty graph never fits
		{1, 0, true},                          // single node: trivial core fits
		{SmallN, 0, true},                     // at the small bound: always fits, any density
		{SmallN + 1, 0, false},                // just over: now density-gated, 0 arcs fail
		{SmallN + 1, 300000, true},            // just over but dense (>= MinDensity)
		{MaxNodes, MaxNodes * MaxNodes, true}, // at the hard cap, fully dense
		{MaxNodes + 1, (MaxNodes + 1) * (MaxNodes + 1), false}, // over the cap: never
	}
	for _, c := range cases {
		if got := Fits(c.n, c.arcs); got != c.want {
			t.Errorf("Fits(%d, %d)=%t, want %t", c.n, c.arcs, got, c.want)
		}
	}
	// The density gate itself, straddled tightly at a mid-sized core.
	n := 1000
	just := int(MinDensity * float64(n) * float64(n))
	if !Fits(n, just) {
		t.Errorf("Fits(%d, %d) at exactly MinDensity should fit", n, just)
	}
	if Fits(n, just-n) {
		t.Errorf("Fits(%d, %d) below MinDensity should not fit", n, just-n)
	}
}

func BenchmarkKernelClosure(b *testing.B) {
	base := randomMatrix(512, 0.1, 1)
	b.Run("warren-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base.Clone().Closure()
		}
	})
	dag := randomDAGMatrix(512, 0.1, 1)
	order := make([]int, dag.N())
	for i := range order {
		order[i] = dag.N() - 1 - i
	}
	b.Run("dag-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dag.Clone().ClosureDAG(order)
		}
	})
}
