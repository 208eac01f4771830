package sparse

import (
	"bufio"
	"fmt"
	"io"
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
	entries := make([]Entry, 0, nnz)
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
