package sparse

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"nomad/internal/rng"
)

func mustMatrix(t *testing.T, rows, cols int, entries []Entry) *Matrix {
	t.Helper()
	m, err := FromEntries(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func smallMatrix(t *testing.T) *Matrix {
	// 3×4:
	//   [ 1 . 2 . ]
	//   [ . 3 . . ]
	//   [ 4 . 5 6 ]
	return mustMatrix(t, 3, 4, []Entry{
		{0, 0, 1}, {0, 2, 2},
		{1, 1, 3},
		{2, 0, 4}, {2, 2, 5}, {2, 3, 6},
	})
}

func TestShapeAndNNZ(t *testing.T) {
	m := smallMatrix(t)
	if m.Rows() != 3 || m.Cols() != 4 || m.NNZ() != 6 {
		t.Fatalf("shape/nnz = %d×%d/%d", m.Rows(), m.Cols(), m.NNZ())
	}
}

func TestRowAccess(t *testing.T) {
	m := smallMatrix(t)
	cols, vals := m.Row(2)
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 2 || cols[2] != 3 {
		t.Fatalf("row 2 cols = %v", cols)
	}
	if vals[0] != 4 || vals[1] != 5 || vals[2] != 6 {
		t.Fatalf("row 2 vals = %v", vals)
	}
	cols, _ = m.Row(1)
	if len(cols) != 1 || cols[0] != 1 {
		t.Fatalf("row 1 cols = %v", cols)
	}
}

func TestColAccessAndCSRPositions(t *testing.T) {
	m := smallMatrix(t)
	rows, pos := m.Col(2)
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Fatalf("col 2 rows = %v", rows)
	}
	if m.ValAt(pos[0]) != 2 || m.ValAt(pos[1]) != 5 {
		t.Fatalf("col 2 values via CSR positions = %v, %v", m.ValAt(pos[0]), m.ValAt(pos[1]))
	}
	rows, _ = m.Col(1)
	if len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("col 1 rows = %v", rows)
	}
}

func TestDegrees(t *testing.T) {
	m := smallMatrix(t)
	if m.RowDegree(0) != 2 || m.RowDegree(1) != 1 || m.RowDegree(2) != 3 {
		t.Fatal("row degrees wrong")
	}
	if m.ColDegree(0) != 2 || m.ColDegree(1) != 1 || m.ColDegree(2) != 2 || m.ColDegree(3) != 1 {
		t.Fatal("col degrees wrong")
	}
}

func TestAt(t *testing.T) {
	m := smallMatrix(t)
	if v, ok := m.At(2, 3); !ok || v != 6 {
		t.Fatalf("At(2,3) = %v,%v", v, ok)
	}
	if _, ok := m.At(0, 1); ok {
		t.Fatal("At(0,1) should be absent")
	}
}

func TestStats(t *testing.T) {
	m := smallMatrix(t)
	rs := m.RowStats()
	if rs.Min != 1 || rs.Max != 3 || rs.Mean != 2 {
		t.Fatalf("row stats = %+v", rs)
	}
	cs := m.ColStats()
	if cs.Min != 1 || cs.Max != 2 || cs.Mean != 1.5 {
		t.Fatalf("col stats = %+v", cs)
	}
}

func TestDuplicateRejected(t *testing.T) {
	_, err := FromEntries(2, 2, []Entry{{0, 0, 1}, {0, 0, 2}})
	if err == nil {
		t.Fatal("duplicate entry accepted")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	for _, e := range []Entry{{-1, 0, 1}, {0, -1, 1}, {2, 0, 1}, {0, 2, 1}} {
		if _, err := FromEntries(2, 2, []Entry{e}); err == nil {
			t.Fatalf("entry %+v accepted", e)
		}
	}
}

func TestInvalidShapeRejected(t *testing.T) {
	if _, err := FromEntries(0, 3, nil); err == nil {
		t.Fatal("0 rows accepted")
	}
	if _, err := FromEntries(3, 0, nil); err == nil {
		t.Fatal("0 cols accepted")
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(2, 2, 4)
	b.Add(0, 1, 1.5)
	b.Add(1, 0, -2)
	if b.Len() != 2 {
		t.Fatalf("builder len = %d", b.Len())
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.At(0, 1); !ok || v != 1.5 {
		t.Fatal("builder lost entry")
	}
}

// TestCSRandCSCConsistency is the central invariant: both layouts must
// describe exactly the same set of entries, checked on random matrices.
func TestCSRandCSCConsistency(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		rows := 1 + r.Intn(20)
		cols := 1 + r.Intn(20)
		used := map[[2]int32]bool{}
		var entries []Entry
		n := r.Intn(rows * cols)
		for len(entries) < n {
			e := Entry{Row: int32(r.Intn(rows)), Col: int32(r.Intn(cols)), Val: r.Uniform(-5, 5)}
			key := [2]int32{e.Row, e.Col}
			if used[key] {
				continue
			}
			used[key] = true
			entries = append(entries, e)
		}
		m, err := FromEntries(rows, cols, entries)
		if err != nil {
			return false
		}
		// Every CSC entry must match the CSR value it points at, and
		// column walks must enumerate exactly NNZ entries.
		var count int
		for j := 0; j < cols; j++ {
			rws, pos := m.Col(j)
			for x, i := range rws {
				v, ok := m.At(int(i), j)
				if !ok || v != m.ValAt(pos[x]) {
					return false
				}
				count++
			}
		}
		return count == m.NNZ()
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	m := smallMatrix(t)
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualMatrices(t, m, m2)
}

func TestReadTextRejectsBadLines(t *testing.T) {
	for _, in := range []string{
		"",
		"1 1 1\n0 0\n",
		"1 1 1\nx 0 1\n",
		"1 1 2\n0 0 1\n",            // nnz mismatch
		"3 3 1\n4294967297 1 2.5\n", // row id wraps to 1 as an int32
		"3 3 1\n1 4294967297 2.5\n", // so does the column id
		"3 3 -1\n",                  // negative entry count
		"4294967297 3 1\n0 0 1\n",   // shape beyond int32 ids
		"2 2 1\n0 0 1\n1 1 1\n",     // more entries than declared
	} {
		if _, err := ReadText(bytes.NewReader([]byte(in))); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func assertEqualMatrices(t *testing.T, a, b *Matrix) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		t.Fatalf("shape mismatch: %d×%d/%d vs %d×%d/%d",
			a.Rows(), a.Cols(), a.NNZ(), b.Rows(), b.Cols(), b.NNZ())
	}
	ae := a.Entries(nil)
	be := b.Entries(nil)
	for i, e := range ae {
		f := be[i]
		if e.Row != f.Row || e.Col != f.Col || math.Float64bits(e.Val) != math.Float64bits(f.Val) {
			t.Fatalf("entry %d differs: %+v vs %+v", i, e, f)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	r := rng.New(1)
	rows, cols := 2000, 500
	entries := make([]Entry, 0, 50000)
	used := map[[2]int32]bool{}
	for len(entries) < 50000 {
		e := Entry{Row: int32(r.Intn(rows)), Col: int32(r.Intn(cols)), Val: 1}
		key := [2]int32{e.Row, e.Col}
		if used[key] {
			continue
		}
		used[key] = true
		entries = append(entries, e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ents := append([]Entry(nil), entries...)
		if _, err := FromEntries(rows, cols, ents); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFromEntriesOrderInvariance: the counting-sort build must produce
// the identical matrix no matter how the input entries are ordered,
// and must not modify the caller's slice.
func TestFromEntriesOrderInvariance(t *testing.T) {
	rows, cols := 37, 23
	var entries []Entry
	for i := 0; i < rows; i++ {
		for j := (i * 3) % 5; j < cols; j += 3 + i%4 {
			entries = append(entries, Entry{Row: int32(i), Col: int32(j), Val: float64(i*100 + j)})
		}
	}
	want, err := FromEntries(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	// A few deterministic shuffles, including fully reversed input.
	perms := [][]Entry{make([]Entry, len(entries)), make([]Entry, len(entries))}
	for i, e := range entries {
		perms[0][len(entries)-1-i] = e
		perms[1][(i*7919)%len(entries)] = e
	}
	for pi, shuffled := range perms {
		snapshot := append([]Entry(nil), shuffled...)
		got, err := FromEntries(rows, cols, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for i := range shuffled {
			if shuffled[i] != snapshot[i] {
				t.Fatalf("perm %d: input slice modified at %d", pi, i)
			}
		}
		for i := 0; i < rows; i++ {
			wc, wv := want.Row(i)
			gc, gv := got.Row(i)
			if len(wc) != len(gc) {
				t.Fatalf("perm %d row %d: degree %d vs %d", pi, i, len(gc), len(wc))
			}
			for x := range wc {
				if wc[x] != gc[x] || wv[x] != gv[x] {
					t.Fatalf("perm %d row %d entry %d: (%d,%v) vs (%d,%v)",
						pi, i, x, gc[x], gv[x], wc[x], wv[x])
				}
				if x > 0 && gc[x] <= gc[x-1] {
					t.Fatalf("perm %d row %d: columns not ascending at %d", pi, i, x)
				}
			}
		}
	}
}

func TestFromEntriesDuplicateAnywhere(t *testing.T) {
	// Duplicates must be caught regardless of where they land in the
	// unsorted input.
	base := []Entry{{0, 1, 1}, {2, 0, 2}, {1, 1, 3}, {0, 0, 4}, {2, 2, 5}}
	for pos := 0; pos <= len(base); pos++ {
		entries := append([]Entry(nil), base[:pos]...)
		entries = append(entries, Entry{1, 1, 9}) // duplicates base[2]
		entries = append(entries, base[pos:]...)
		if _, err := FromEntries(3, 3, entries); err == nil {
			t.Fatalf("duplicate at position %d accepted", pos)
		}
	}
}

func BenchmarkFromEntries(b *testing.B) {
	const rows, cols, nnz = 20000, 4000, 400000
	entries := make([]Entry, nnz)
	rnd := uint64(1)
	for i := range entries {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		r := int32(rnd>>33) % rows
		rnd = rnd*6364136223846793005 + 1442695040888963407
		c := int32(rnd>>33) % cols
		// Unique synthetic coordinates: spread duplicates apart by
		// folding the index into the row.
		entries[i] = Entry{Row: (r + int32(i)%rows) % rows, Col: c, Val: float64(i)}
	}
	// Deduplicate once so the benchmark measures the success path.
	seen := map[int64]bool{}
	uniq := entries[:0]
	for _, e := range entries {
		k := int64(e.Row)*int64(cols) + int64(e.Col)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, e)
		}
	}
	entries = uniq
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromEntries(rows, cols, entries); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadTextBoundsPreallocation: a header that declares a huge entry
// count over a one-entry body is rejected without allocating the
// declared count.
func TestReadTextBoundsPreallocation(t *testing.T) {
	in := []byte("3 3 1000000000000\n0 0 1\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadText(bytes.NewReader(in)); err == nil {
		t.Fatal("entry-count mismatch accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Fatalf("allocated %d bytes for a %d-byte input", got, len(in))
	}
}

// TestReadTextGrowsPastItsFirstCapacity: a matrix with more entries
// than ReadText first allocates for reads back whole.
func TestReadTextGrowsPastItsFirstCapacity(t *testing.T) {
	const rows, cols, n = 2048, 1024, 1<<20 + 3
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d %d\n", rows, cols, n)
	for x := 0; x < n; x++ {
		fmt.Fprintf(&b, "%d %d %d\n", x/cols, x%cols, x%7)
	}
	m, err := ReadText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != n {
		t.Fatalf("read %d entries, want %d", m.NNZ(), n)
	}
}

// FuzzReadText: arbitrary text never panics the reader, and what it
// accepts writes back and reads again as the same matrix.
func FuzzReadText(f *testing.F) {
	var buf bytes.Buffer
	m, err := FromEntries(3, 4, []Entry{{0, 1, 2.5}, {2, 3, -1}, {1, 0, 4}})
	if err != nil {
		f.Fatal(err)
	}
	if err := m.WriteText(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("3 3 1\n4294967297 1 2.5\n")
	f.Add("3 3 -1\n")
	f.Add("3 3 1000000000000\n0 0 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		// A legitimately large shape allocates its row index up front;
		// that is not what this target looks for.
		var rows, cols int
		if _, err := fmt.Sscanf(in, "%d %d", &rows, &cols); err == nil && (rows > 1<<16 || cols > 1<<16) {
			t.Skip()
		}
		m, err := ReadText(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.WriteText(&out); err != nil {
			t.Fatal(err)
		}
		m2, err := ReadText(&out)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualMatrices(t, m, m2)
	})
}
