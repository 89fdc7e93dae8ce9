package engine

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"etsqp/internal/storage"
)

// raceEnabled reports a -race build (set in race_on_test.go), whose
// sync.Pool drops a random share of Put items, so pool-dependent
// allocation counts vary from run to run.
var raceEnabled bool

// rowQueryStore stores l with n rows and r on every other timestamp of
// l, both in eight pages, so the page and range counts stay fixed while
// n varies.
func rowQueryStore(t testing.TB, n int) *storage.Store {
	t.Helper()
	ts, vals := testData(n, 5, false)
	var rts, rvals []int64
	for i := 0; i < n; i += 2 {
		rts = append(rts, ts[i])
		rvals = append(rvals, vals[i]*3-7)
	}
	st := storage.NewStore()
	if err := st.Append("l", ts, vals, storage.Options{PageSize: n / 8}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("r", rts, rvals, storage.Options{PageSize: n / 16}); err != nil {
		t.Fatal(err)
	}
	return st
}

// rowQueries are the row-path shapes: Q4 projection, Q5 UNION, Q6 star
// join and a LIMIT scan reaching past half the series.
func rowQueries(n int) []string {
	return []string{
		"SELECT l.A + r.A FROM l, r",
		"SELECT * FROM l UNION r ORDER BY TIME",
		"SELECT * FROM l, r",
		fmt.Sprintf("SELECT * FROM l LIMIT %d", n*5/8),
	}
}

// TestRowQueryAllocsScaleWithRanges gates the row path: with no
// decoded-page cache, a row query's allocations are a function of its
// pages and ranges, never of its rows. Each query runs at n and at 4n
// rows over the same page and range counts; the larger run may not
// allocate more. The collector is off while measuring, so no GC empties
// the buffer pools mid-run and the counts are exact.
func TestRowQueryAllocsScaleWithRanges(t *testing.T) {
	if raceEnabled {
		t.Skip("-race randomizes sync.Pool reuse, so decode-buffer allocations vary")
	}
	const n = 4096
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(rows int) []float64 {
		e := New(rowQueryStore(t, rows), ModeETSQP)
		e.Workers = 2
		var out []float64
		for _, sql := range rowQueries(rows) {
			run := func() {
				res, err := e.ExecuteSQL(sql)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) < rows/4 {
					t.Fatalf("%s: %d rows", sql, len(res.Rows))
				}
			}
			run() // warm the plan cache and the recycled buffers
			out = append(out, testing.AllocsPerRun(20, run))
		}
		return out
	}
	small, large := allocs(n), allocs(4*n)
	for i, sql := range rowQueries(n) {
		t.Logf("%s: %.0f allocs at %d rows, %.0f at %d", sql, small[i], n, large[i], 4*n)
		if large[i] > small[i] {
			t.Errorf("%s: %.0f allocs at %d rows > %.0f at %d rows", sql, large[i], 4*n, small[i], n)
		}
	}
}

// TestRowQueryValuesAreCapLimited: every row of a real join result has a
// cap-limited Values window, so appending to one row leaves the next
// row intact.
func TestRowQueryValuesAreCapLimited(t *testing.T) {
	e := New(rowQueryStore(t, 2048), ModeETSQP)
	e.Workers = 2
	for _, sql := range rowQueries(2048) {
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(res.Rows); i++ {
			r := res.Rows[i]
			if cap(r.Values) != len(r.Values) {
				t.Fatalf("%s: row %d Values len %d cap %d", sql, i, len(r.Values), cap(r.Values))
			}
			next := slices.Clone(res.Rows[i+1].Values)
			_ = append(r.Values, -1)
			if !slices.Equal(res.Rows[i+1].Values, next) {
				t.Fatalf("%s: append to row %d changed row %d", sql, i, i+1)
			}
		}
	}
}
