// Package sparse implements the immutable sparse rating matrix used by
// every matrix-completion algorithm in this repository.
//
// A Matrix is built once from (row, col, value) triples and then
// compiled into both CSR (row-major) and CSC (column-major) layouts,
// because the algorithms need both views: SGD-style methods walk a
// user's row or an item's column, ALS/CCD++ need per-row and per-column
// gathers, and NOMAD partitions by user while processing by item. The
// CSC layout also carries, for every entry, its position in the CSR
// value array so per-rating state (residuals, update counts) stored in
// CSR order can be addressed from a column walk.
package sparse

import (
	"errors"
	"fmt"
	"math"
)

// Entry is one observed rating: A[Row, Col] = Val.
type Entry struct {
	Row, Col int32
	Val      float64
}

// Matrix is an immutable sparse matrix in simultaneous CSR and CSC
// form. Construct with NewBuilder/Build or FromEntries.
type Matrix struct {
	rows, cols int
	nnz        int

	// CSR layout.
	rowPtr []int64
	colIdx []int32
	vals   []float64

	// CSC layout. cscToCSR[p] is the index into vals of the entry at
	// CSC position p, so column walks can address CSR-ordered
	// per-entry state.
	colPtr   []int64
	rowIdx   []int32
	cscToCSR []int64
}

// Builder accumulates entries for a Matrix.
type Builder struct {
	rows, cols int
	entries    []Entry
}

// NewBuilder returns a Builder for a rows×cols matrix. The expected
// number of entries may be 0 if unknown.
func NewBuilder(rows, cols, expected int) *Builder {
	return &Builder{rows: rows, cols: cols, entries: make([]Entry, 0, expected)}
}

// Add appends one entry. Bounds are validated at Build time.
func (b *Builder) Add(row, col int, val float64) {
	b.entries = append(b.entries, Entry{Row: int32(row), Col: int32(col), Val: val})
}

// Len reports the number of entries added so far.
func (b *Builder) Len() int { return len(b.entries) }

// Build compiles the accumulated entries into a Matrix. Duplicate
// (row, col) pairs are rejected; out-of-range indices are errors.
// The builder must not be reused afterwards.
func (b *Builder) Build() (*Matrix, error) {
	return FromEntries(b.rows, b.cols, b.entries)
}

// FromEntries compiles a Matrix directly from a slice of entries,
// which may arrive in any order and is not modified. The row-major
// ordering is established by a two-pass counting sort (stable by
// column, then by row), so the build is O(nnz + rows + cols) rather
// than the O(nnz·log nnz) of a comparison sort — the difference is
// minutes on netflix-scale loads. Duplicate (row, col) pairs are
// rejected.
func FromEntries(rows, cols int, entries []Entry) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: invalid shape %d×%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for %d×%d", e.Row, e.Col, rows, cols)
		}
	}
	nnz := len(entries)
	m := &Matrix{
		rows:   rows,
		cols:   cols,
		nnz:    nnz,
		rowPtr: make([]int64, rows+1),
		colIdx: make([]int32, nnz),
		vals:   make([]float64, nnz),
	}
	for _, e := range entries {
		m.rowPtr[e.Row+1]++
	}
	for i := 0; i < rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	// The permutation scratch uses int32 indices whenever nnz fits —
	// 4 bytes per entry of transient memory instead of 8, which at
	// netflix/hugewiki scale is the difference between fitting and
	// paging — with an int64 path for matrices beyond 2³¹-1 entries.
	var err error
	if nnz <= math.MaxInt32 {
		err = fillSorted(m, entries, make([]int32, nnz))
	} else {
		err = fillSorted(m, entries, make([]int64, nnz))
	}
	if err != nil {
		return nil, err
	}
	m.buildCSC()
	return m, nil
}

// fillSorted writes entries into the CSR arrays in row-major,
// column-ascending order using a two-pass counting sort with byCol as
// the permutation scratch. m.rowPtr must already hold the row offsets.
func fillSorted[I int32 | int64](m *Matrix, entries []Entry, byCol []I) error {
	// Pass 1: stable counting sort of entry indices by column.
	colNext := make([]int64, m.cols+1)
	for _, e := range entries {
		colNext[e.Col+1]++
	}
	for j := 0; j < m.cols; j++ {
		colNext[j+1] += colNext[j]
	}
	for x, e := range entries {
		byCol[colNext[e.Col]] = I(x)
		colNext[e.Col]++
	}
	// Pass 2: scatter the column-ordered indices by row. Stability
	// makes columns ascend within each row, which is also what exposes
	// duplicates as adjacent equal columns during the fill.
	rowNext := make([]int64, m.rows)
	copy(rowNext, m.rowPtr[:m.rows])
	for _, x := range byCol {
		e := entries[x]
		p := rowNext[e.Row]
		if p > m.rowPtr[e.Row] && m.colIdx[p-1] == e.Col {
			return fmt.Errorf("sparse: duplicate entry (%d,%d)", e.Row, e.Col)
		}
		m.colIdx[p] = e.Col
		m.vals[p] = e.Val
		rowNext[e.Row] = p + 1
	}
	return nil
}

// buildCSC derives the column-major view from the CSR arrays.
func (m *Matrix) buildCSC() {
	m.colPtr = make([]int64, m.cols+1)
	m.rowIdx = make([]int32, m.nnz)
	m.cscToCSR = make([]int64, m.nnz)
	for _, c := range m.colIdx {
		m.colPtr[c+1]++
	}
	for j := 0; j < m.cols; j++ {
		m.colPtr[j+1] += m.colPtr[j]
	}
	next := make([]int64, m.cols)
	copy(next, m.colPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			j := m.colIdx[p]
			q := next[j]
			next[j]++
			m.rowIdx[q] = int32(i)
			m.cscToCSR[q] = p
		}
	}
}

// Rows returns the number of rows (users).
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns (items).
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return m.nnz }

// Row returns the column indices and values of row i. The returned
// slices alias internal storage and must not be modified.
func (m *Matrix) Row(i int) (cols []int32, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// RowRange returns the half-open CSR position range [lo, hi) of row
// i's entries. Positions index Vals and any caller-maintained
// per-entry state stored in CSR order (e.g. CCD++ residuals); entry x
// of Row(i) lives at position lo+x.
func (m *Matrix) RowRange(i int) (lo, hi int64) {
	return m.rowPtr[i], m.rowPtr[i+1]
}

// Col returns the row indices of column j together with, for each
// entry, its position in the CSR value array (usable with Val/ValAt
// and for addressing CSR-ordered per-entry state). The returned slices
// alias internal storage and must not be modified.
func (m *Matrix) Col(j int) (rows []int32, csrPos []int64) {
	lo, hi := m.colPtr[j], m.colPtr[j+1]
	return m.rowIdx[lo:hi], m.cscToCSR[lo:hi]
}

// ValAt returns the value stored at CSR position p (as yielded by Col).
func (m *Matrix) ValAt(p int64) float64 { return m.vals[p] }

// RowDegree returns the number of entries in row i (|Ωᵢ| in the paper).
func (m *Matrix) RowDegree(i int) int { return int(m.rowPtr[i+1] - m.rowPtr[i]) }

// ColDegree returns the number of entries in column j (|Ω̄ⱼ|).
func (m *Matrix) ColDegree(j int) int { return int(m.colPtr[j+1] - m.colPtr[j]) }

// Entries appends all entries in row-major order to dst and returns it.
func (m *Matrix) Entries(dst []Entry) []Entry {
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			dst = append(dst, Entry{Row: int32(i), Col: m.colIdx[p], Val: m.vals[p]})
		}
	}
	return dst
}

// At returns the value at (i, j) and whether it is present, by binary
// search within row i. Intended for tests, not hot paths.
func (m *Matrix) At(i, j int) (float64, bool) {
	cols, vals := m.Row(i)
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < int32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == int32(j) {
		return vals[lo], true
	}
	return 0, false
}

// Vals returns the CSR-ordered value array. The slice aliases internal
// storage; callers that need per-entry scratch state (e.g. CCD++
// residuals) should copy it.
func (m *Matrix) Vals() []float64 { return m.vals }

// ErrEmpty is returned by operations that require at least one entry.
var ErrEmpty = errors.New("sparse: matrix has no entries")

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// RowStats returns degree statistics over all rows.
func (m *Matrix) RowStats() DegreeStats { return m.stats(m.rows, m.RowDegree) }

// ColStats returns degree statistics over all columns.
func (m *Matrix) ColStats() DegreeStats { return m.stats(m.cols, m.ColDegree) }

func (m *Matrix) stats(n int, deg func(int) int) DegreeStats {
	if n == 0 {
		return DegreeStats{}
	}
	s := DegreeStats{Min: deg(0), Max: deg(0)}
	var total int
	for i := 0; i < n; i++ {
		d := deg(i)
		total += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
	}
	s.Mean = float64(total) / float64(n)
	return s
}
