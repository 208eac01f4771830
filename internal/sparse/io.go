package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteText writes m as "row col value" lines, one entry per line,
// preceded by a "%d %d %d" header line of rows, cols, nnz.
func (m *Matrix) WriteText(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.rows, m.cols, m.nnz); err != nil {
		return err
	}
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", i, m.colIdx[p], m.vals[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadText reads the text format written by WriteText.
func ReadText(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty input")
	}
	var rows, cols, nnz int
	if _, err := fmt.Sscanf(sc.Text(), "%d %d %d", &rows, &cols, &nnz); err != nil {
		return nil, fmt.Errorf("sparse: bad header %q: %w", sc.Text(), err)
	}
	if nnz < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: bad header %q: want int32 ids and a non-negative entry count", sc.Text())
	}
	// The header's count is trusted only as far as the data bears it
	// out: the entries start at a bounded capacity and double toward it.
	entries := make([]Entry, 0, min(nnz, 1<<20))
	line := 1
	for sc.Scan() {
		line++
		txt := sc.Text()
		if len(txt) == 0 {
			continue
		}
		var i, j int
		var v float64
		f1, f2, f3, ok := splitThree(txt)
		if !ok {
			return nil, fmt.Errorf("sparse: line %d: want 3 fields, got %q", line, txt)
		}
		var err error
		if i, err = strconv.Atoi(f1); err != nil {
			return nil, fmt.Errorf("sparse: line %d row: %w", line, err)
		}
		if j, err = strconv.Atoi(f2); err != nil {
			return nil, fmt.Errorf("sparse: line %d col: %w", line, err)
		}
		if v, err = strconv.ParseFloat(f3, 64); err != nil {
			return nil, fmt.Errorf("sparse: line %d val: %w", line, err)
		}
		// Checked here, before the int32 conversion could wrap them.
		if uint(i) >= uint(rows) || uint(j) >= uint(cols) {
			return nil, fmt.Errorf("sparse: line %d: entry (%d,%d) out of range for %d×%d", line, i, j, rows, cols)
		}
		if len(entries) == nnz {
			return nil, fmt.Errorf("sparse: line %d: more entries than the header's %d", line, nnz)
		}
		if len(entries) == cap(entries) {
			entries = append(make([]Entry, 0, min(nnz, 2*cap(entries))), entries...)
		}
		entries = append(entries, Entry{Row: int32(i), Col: int32(j), Val: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) != nnz {
		return nil, fmt.Errorf("sparse: header declared %d entries, found %d", nnz, len(entries))
	}
	return FromEntries(rows, cols, entries)
}

// splitThree splits s into exactly three space-separated fields without
// allocating a slice, the hot path of ReadText.
func splitThree(s string) (a, b, c string, ok bool) {
	i := 0
	next := func() (string, bool) {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		start := i
		for i < len(s) && s[i] != ' ' {
			i++
		}
		if start == i {
			return "", false
		}
		return s[start:i], true
	}
	if a, ok = next(); !ok {
		return
	}
	if b, ok = next(); !ok {
		return
	}
	if c, ok = next(); !ok {
		return
	}
	for i < len(s) && s[i] == ' ' {
		i++
	}
	if i != len(s) {
		return "", "", "", false
	}
	return a, b, c, true
}
