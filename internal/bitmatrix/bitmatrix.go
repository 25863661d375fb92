// Package bitmatrix is the dense-core transitive closure kernel: a
// word-parallel bit matrix (64 reachability bits per uint64) closed
// entirely in memory with bit-skipping sweeps over cache-resident rows.
//
// It targets the regime the successor-list engine handles worst — small,
// dense SCC condensation cores — where the n²-bit representation turns a
// closure into a stream of word ORs over contiguous cache lines. The
// engine's kernel is the DAG sweep (ClosureDAG), one row union per arc in
// reverse-topological order, which applies because the engine only ever
// closes an acyclic condensation. Warren's two-pass sweep (Closure, the
// in-memory analogue of the engine's Blocked Warren baseline) closes any
// digraph and serves as the tests' oracle for the DAG sweep.
//
// Both kernels compute the exact transitive closure (paths of length ≥ 1,
// so a node reaches itself only through a cycle) and are pinned against
// each other, against the BFS oracle and against the engine's BTC by the
// differential battery in this package and internal/core.
package bitmatrix

import (
	"fmt"
	"math/bits"
)

// Matrix is a dense n×n reachability bit matrix. Row i holds the successor
// bits of node i: bit j of row i means "i reaches j". Rows and columns are
// 0-based; callers with 1-based node spaces allocate n+1 and ignore row 0.
type Matrix struct {
	n     int
	words int      // uint64 words per row
	bits  []uint64 // n*words, row-major
}

// New returns the empty n×n matrix.
func New(n int) *Matrix {
	if n < 0 {
		panic(fmt.Sprintf("bitmatrix: negative dimension %d", n))
	}
	w := (n + 63) / 64
	return &Matrix{n: n, words: w, bits: make([]uint64, n*w)}
}

// N reports the matrix dimension.
func (m *Matrix) N() int { return m.n }

// WordsPerRow reports the row stride in uint64 words.
func (m *Matrix) WordsPerRow() int { return m.words }

// Row returns the word slice of row i, aliasing the matrix storage.
func (m *Matrix) Row(i int) []uint64 {
	return m.bits[i*m.words : (i+1)*m.words : (i+1)*m.words]
}

// Set sets bit (i, j).
func (m *Matrix) Set(i, j int) {
	m.bits[i*m.words+j>>6] |= 1 << uint(j&63)
}

// Has reports bit (i, j).
func (m *Matrix) Has(i, j int) bool {
	return m.bits[i*m.words+j>>6]&(1<<uint(j&63)) != 0
}

// Count reports the number of set bits (the closure size once closed).
func (m *Matrix) Count() int64 {
	var c int64
	for _, w := range m.bits {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// CountRow reports the number of set bits in row i.
func (m *Matrix) CountRow(i int) int {
	c := 0
	for _, w := range m.Row(i) {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.n)
	copy(c.bits, m.bits)
	return c
}

// Equal reports whether the matrices have identical dimension and bits.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i, w := range m.bits {
		if o.bits[i] != w {
			return false
		}
	}
	return true
}

// Transpose returns the transposed matrix: bit (i, j) of the result is bit
// (j, i) of m. The closure of the transpose is the transpose of the
// closure (predecessor sets), an invariant the fuzz battery leans on.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.n)
	for i := 0; i < m.n; i++ {
		row := m.Row(i)
		for wi, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				t.Set(wi*64+b, i)
				w &= w - 1
			}
		}
	}
	return t
}

// Stats reports the logical work of one closure computation, feeding the
// engine's metric record: RowUnions counts row-OR operations (the matrix
// analogue of list unions) and BitsDriving counts the set bits that
// triggered them (the matrix analogue of arcs considered).
type Stats struct {
	RowUnions   int64
	BitsDriving int64
}

// orInto folds src into dst word by word; a plain indexed loop with the
// bounds check hoisted, so the compiler keeps it branch-free.
func orInto(dst, src []uint64) {
	_ = dst[len(src)-1]
	for i, w := range src {
		dst[i] |= w
	}
}

// Closure replaces m with its transitive closure by Warren's two-pass
// sweep. It makes no demand on the input's shape, so it is the general
// entry point; its Stats are deterministic for a given matrix.
func (m *Matrix) Closure() Stats {
	if m.n == 0 {
		return Stats{}
	}
	return m.closureWarren()
}

// ClosureDAG replaces m with its transitive closure, given that the matrix
// is acyclic (save for harmless diagonal self-loop bits) and that order is
// a reverse-topological row order: every row must appear after all rows
// its initial bits point to. Passing nil uses ascending row index, which
// is correct whenever every set bit (i, j) has j < i — the natural shape
// of a Tarjan condensation, whose component numbering puts every arc's
// target before its source.
//
// Where Warren's sweep performs one row union per closure bit, the DAG
// sweep performs one per direct arc: each row is closed by absorbing the
// already-final rows of its initial successors. On dense cores the closure
// holds many times more bits than arcs, so this is the serial kernel of
// choice when the caller can certify acyclicity; Closure makes no such
// demand and stays the general entry point.
func (m *Matrix) ClosureDAG(order []int) Stats {
	var st Stats
	words := m.words
	buf := make([]uint64, words)
	row := func(i int) []uint64 { return m.bits[i*words : (i+1)*words : (i+1)*words] }
	process := func(i int) {
		rowI := row(i)
		// Snapshot the direct bits: the unions below must not feed the
		// closure bits they add back into the iteration.
		copy(buf, rowI)
		for wi, w := range buf {
			for w != 0 {
				j := wi*64 + bits.TrailingZeros64(w)
				w &= w - 1
				if j == i {
					continue // diagonal self-loop bit: already in the row
				}
				st.BitsDriving++
				st.RowUnions++
				orInto(rowI, row(j))
			}
		}
	}
	if order == nil {
		for i := 0; i < m.n; i++ {
			process(i)
		}
	} else {
		for _, i := range order {
			process(i)
		}
	}
	return st
}

// closureWarren is the serial kernel: Warren's two-pass sweep,
//
//	pass 1: for i ascending, for j < i ascending:  if M[i][j] then row_i |= row_j
//	pass 2: for i ascending, for j > i ascending:  if M[i][j] then row_i |= row_j
//
// driven row-centrically with bit-skipping word iteration: instead of
// probing every (i, j) cell, each row's words are scanned and only set
// bits trigger a union. Warren's schedule tests M[i][j] at the moment j is
// reached, so after every union the current word is re-read with bits ≤ j
// masked off — newly arrived bits above j are picked up exactly as the
// strict cell-by-cell sweep would. The sweep therefore costs O(n·words)
// word reads plus one streamed row union per driving bit, instead of n²
// strided column probes per pass.
func (m *Matrix) closureWarren() Stats {
	var st Stats
	words := m.words
	for pass := 1; pass <= 2; pass++ {
		for i := 0; i < m.n; i++ {
			rowI := m.bits[i*words : (i+1)*words : (i+1)*words]
			// The word range holding this pass's columns: [0, i) for pass
			// 1, (i, n) for pass 2; the word containing column i itself is
			// trimmed with a partial mask.
			wLo, wHi := 0, i>>6
			if pass == 2 {
				wLo, wHi = i>>6, words-1
			}
			for wi := wLo; wi <= wHi; wi++ {
				mask := ^uint64(0)
				if wi == i>>6 {
					if pass == 1 {
						mask = (uint64(1) << uint(i&63)) - 1 // bits j < i
					} else {
						mask = ^((uint64(2) << uint(i&63)) - 1) // bits j > i
					}
				}
				w := rowI[wi] & mask
				for w != 0 {
					b := bits.TrailingZeros64(w)
					j := wi*64 + b
					st.BitsDriving++
					st.RowUnions++
					orInto(rowI, m.bits[j*words:(j+1)*words])
					// Re-read: the union may have set bits above j in this
					// word; bits at or below j are done.
					w = rowI[wi] & mask &^ ((uint64(2) << uint(b)) - 1)
				}
			}
		}
	}
	return st
}

// Threshold constants of the planner/engine selection rule. The kernel is
// a dense-core specialist: the matrix costs n² bits of memory and the
// sweep O(n³/64) word ops regardless of sparsity, so it wins exactly when
// the condensed graph is small, or mid-sized and dense enough that
// successor-list expansion would churn the buffer pool harder.
const (
	// SmallN is the core size at or below which the kernel always fits:
	// the matrix is at most 32 KiB (512 rows × 64 bytes), cheaper to
	// close than to second-guess.
	SmallN = 512
	// MaxNodes bounds the matrix outright; above it the n² memory and
	// n³ sweep are no longer competitive with list-based expansion
	// (8192 rows × 1 KiB = 8 MiB).
	MaxNodes = 8192
	// MinDensity is the arc density |A|/n² a mid-sized core (SmallN <
	// n ≤ MaxNodes) must reach for the kernel to be selected.
	MinDensity = 0.02
)

// Density returns the arc density |A|/n² of an n-node graph.
func Density(n, arcs int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(arcs) / (float64(n) * float64(n))
}

// Fits is the selection threshold shared by the planner and the engine:
// whether an n-node, arcs-arc condensed graph is in the kernel's regime.
// Callers fall back to BTC when it reports false.
func Fits(n, arcs int) bool {
	if n < 1 || n > MaxNodes {
		return false
	}
	if n <= SmallN {
		return true
	}
	return Density(n, arcs) >= MinDensity
}
