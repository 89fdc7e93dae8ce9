package engine

import (
	"fmt"
	"sync"
	"testing"

	"etsqp/internal/exec"
	"etsqp/internal/expr"
	"etsqp/internal/storage"
)

// TestConcurrentQueriesSharedPool runs many queries through one shared
// worker pool and one shared decoded-page cache while an ingester
// appends and compacts a second series, exercising the OnMutate
// invalidation path under the race detector. The queried series is
// immutable for the duration, so every query must return the same sum.
func TestConcurrentQueriesSharedPool(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	cache := exec.NewPageCache(1 << 20)

	ts, vals := testData(8_000, 77, false)
	st := storeFor(t, ModeETSQP, ts, vals, 512)
	st.OnMutate(func(series string) { cache.InvalidateSeries(series) })
	t1, t2 := ts[0], ts[len(ts)-1]
	wantSum, wantCount := sumRange(ts, vals, t1, t2, func(v int64) bool { return v > 400 })
	// Value predicate forces the decode path, so queries share cached
	// decoded pages rather than the fused encoded-form scan.
	sql := fmt.Sprintf(
		"SELECT SUM(A), COUNT(A) FROM ts WHERE TIME >= %d AND TIME <= %d AND A > 400", t1, t2)

	const queriers = 6
	const reps = 8
	var wg sync.WaitGroup
	errs := make(chan error, queriers+1)

	// Ingester: appends then compacts a second series, firing OnMutate
	// invalidations concurrently with cache fills from the queriers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		bts, bvals := testData(2_000, 99, true)
		step := int64(2_000 * 100)
		for rep := 0; rep < reps; rep++ {
			for i := range bts {
				bts[i] += step
			}
			if err := st.Append("ingest", bts, bvals, storage.Options{PageSize: 256}); err != nil {
				errs <- err
				return
			}
			if err := st.Compact("ingest", storage.Options{PageSize: 1024}); err != nil {
				errs <- err
				return
			}
		}
	}()

	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New(st, ModeETSQP)
			e.Pool = pool
			e.Cache = cache
			e.Workers = 3
			for rep := 0; rep < reps; rep++ {
				res, err := e.ExecuteSQL(sql)
				if err != nil {
					errs <- err
					return
				}
				if res.Aggregates["SUM(A)"] != float64(wantSum) ||
					res.Aggregates["COUNT(A)"] != float64(wantCount) {
					errs <- fmt.Errorf("rep %d: got %v want sum=%d count=%d",
						rep, res.Aggregates, wantSum, wantCount)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cache.UsedBytes() > 1<<20 {
		t.Fatalf("cache over budget: %d", cache.UsedBytes())
	}
}

// TestRowQueriesDuringAppend runs UNION, join and LIMIT-scan row queries
// while another goroutine appends to their right-hand series, inside
// the left series' time span and past it. The counting and writing
// passes of each query must read one page snapshot: a writing pass that
// saw the appended rows would interleave them with left rows and fill
// the counted rows before reaching every left row.
func TestRowQueriesDuringAppend(t *testing.T) {
	const n = 4_000
	lts, lvals := make([]int64, n), make([]int64, n)
	var rts, rvals []int64
	for i := range lts {
		lts[i], lvals[i] = int64(i)*10, int64(i)
		if i%2 == 0 && i < n/2 {
			rts, rvals = append(rts, lts[i]), append(rvals, -lts[i])
		}
	}
	st := storage.NewStore()
	if err := st.Append("l", lts, lvals, storage.Options{PageSize: 256}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("r", rts, rvals, storage.Options{PageSize: 256}); err != nil {
		t.Fatal(err)
	}
	initialR := len(rts)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := int64(n)*5 + 5 // between left timestamps, from mid-span on
		for rep := 0; rep < 40; rep++ {
			ts, vals := make([]int64, 100), make([]int64, 100)
			for i := range ts {
				ts[i], vals[i] = next, -next
				next += 10
			}
			if err := st.Append("r", ts, vals, storage.Options{PageSize: 64}); err != nil {
				errs <- err
				return
			}
		}
	}()
	// checkUnion verifies one UNION result against the data: every left
	// row present, every right value the appended or initial one.
	checkUnion := func(rows []Row) error {
		left, right := 0, 0
		for i, r := range rows {
			if i > 0 && r.Time <= rows[i-1].Time {
				return fmt.Errorf("row %d: time %d not after %d", i, r.Time, rows[i-1].Time)
			}
			if lv := r.Values[0]; lv != expr.NullValue {
				if r.Time >= int64(n)*10 || lv != r.Time/10 {
					return fmt.Errorf("row %d: left value %d at time %d", i, lv, r.Time)
				}
				left++
			}
			if rv := r.Values[1]; rv != expr.NullValue {
				if rv != -r.Time {
					return fmt.Errorf("row %d: right value %d at time %d", i, rv, r.Time)
				}
				right++
			}
		}
		if left != n || right < initialR {
			return fmt.Errorf("union has %d left and %d right rows, want %d and >= %d", left, right, n, initialR)
		}
		return nil
	}
	for _, cached := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New(st, ModeETSQP)
			e.Workers = 3
			if cached {
				e.Cache = exec.NewPageCache(1 << 20)
			}
			for rep := 0; rep < 20; rep++ {
				res, err := e.ExecuteSQL("SELECT * FROM l UNION r ORDER BY TIME")
				if err == nil {
					err = checkUnion(res.Rows)
				}
				if err == nil {
					res, err = e.ExecuteSQL("SELECT * FROM l, r")
					if err == nil && len(res.Rows) != initialR {
						err = fmt.Errorf("join has %d rows, want %d", len(res.Rows), initialR)
					}
				}
				if err == nil {
					res, err = e.ExecuteSQL("SELECT * FROM r LIMIT 900")
					if err == nil && (len(res.Rows) != 900 || res.Rows[899].Values[0] != -res.Rows[899].Time) {
						err = fmt.Errorf("LIMIT scan returned %d rows", len(res.Rows))
					}
				}
				if err != nil {
					errs <- fmt.Errorf("cache=%v rep %d: %w", cached, rep, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
