package engine

import (
	"testing"
)

// TestParallelExecutorAllocs is the runtime cross-check of the
// sharedwrite refactors: the parallel row reader and the partitioned
// range executor must hold a steady per-call allocation count once
// caches are warm. The fan-outs inherently allocate — output columns,
// per-worker slice jobs, goroutines, the result slots — but the count
// is a function of page/range count only, never of call repetition or
// row volume, so a fixed budget catches any per-row allocation that
// sneaks into a worker body.
func TestParallelExecutorAllocs(t *testing.T) {
	ts, vals := testData(8192, 7, true)
	st := storeFor(t, ModeETSQP, ts, vals, 512)
	e := New(st, ModeETSQP)
	e.Workers = 4

	warm := &statsCollector{}
	if _, _, err := e.readSeriesColumns("ts", ts[0], ts[len(ts)-1], warm); err != nil {
		t.Fatal(err) // also warms the plan cache
	}
	pages := int(warm.pagesTotal.Load())
	if pages == 0 {
		t.Fatal("no pages loaded")
	}

	n := testing.AllocsPerRun(20, func() {
		col := &statsCollector{}
		if _, _, err := e.readSeriesColumns("ts", ts[0], ts[len(ts)-1], col); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: a small constant per decoded page (decoded columns, map
	// entries, slice jobs) plus fixed fan-out overhead (output columns,
	// error channel, one goroutine per worker).
	if budget := float64(pages*12 + 48); n > budget {
		t.Errorf("readSeriesColumns: %.1f allocs/op over %d pages, budget %.0f", n, pages, budget)
	}
	t.Logf("readSeriesColumns: %.1f allocs/op over %d pages", n, pages)

	ser, ok := st.Series("ts")
	if !ok {
		t.Fatal("unknown series")
	}
	ranges := timeCuts(ser, ts[0], ts[len(ts)-1], 8)
	fn := func(a, b int64, out *rowSink) error {
		out.add1(a, b)
		return nil
	}
	if _, err := e.runRanged(ranges, 1, 0, nil, fn); err != nil {
		t.Fatal(err)
	}
	n = testing.AllocsPerRun(100, func() {
		if _, err := e.runRanged(ranges, 1, 0, nil, fn); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: sink slots + semaphore + one goroutine and closure per
	// range and pass + the result rows and their value slab. fn writes
	// one row per range straight into the result, so this isolates the
	// executor's own overhead.
	if budget := float64(len(ranges)*6 + 16); n > budget {
		t.Errorf("runRanged: %.1f allocs/op over %d ranges, budget %.0f", n, len(ranges), budget)
	}
	t.Logf("runRanged: %.1f allocs/op over %d ranges", n, len(ranges))
}
