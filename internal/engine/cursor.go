package engine

import (
	"fmt"
	"time"

	"etsqp/internal/expr"
	"etsqp/internal/storage"
)

// Int64Batch is one typed columnar batch yielded by a batch cursor:
// parallel timestamp/value columns for a run of rows in time order.
type Int64Batch struct {
	Ts   []int64
	Vals []int64
}

// Len returns the number of rows in the batch.
//
//etsqp:hotpath
func (b Int64Batch) Len() int { return len(b.Ts) }

// batchCursor streams a series' rows within [t1, t2] as typed columnar
// batches, one storage page per Next call (the array_cursor idiom):
// operators compose over batches while pages decode lazily, so a LIMIT
// or a drained join side stops before later pages are ever touched, and
// merge/join nodes never materialize a whole series.
type batchCursor struct {
	e      *Engine
	name   string
	t1, t2 int64
	pairs  []storage.PagePair
	idx    int
	col    *statsCollector
	// timesOnly cursors decode only timestamps and yield them as the
	// batch values too: enough for a counting pass that needs no values.
	timesOnly bool
	// replay marks a writing-pass cursor (see rowSink): the counting pass
	// already accounted the pages relevant, tuples loaded and batches.
	replay bool
	// bufs are the recycled time/value decode buffers of an engine
	// without a decoded-page cache, held until release.
	bufs [2]*[]int64
}

// newBatchCursor opens a cursor over the [t1, t2] rows of a series.
func (e *Engine) newBatchCursor(name string, t1, t2 int64, col *statsCollector) (*batchCursor, error) {
	ser, ok := e.Store.Series(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown series %q", name)
	}
	pairs := ser.PagesInRange(t1, t2)
	col.pagesTotal.Add(int64(len(pairs)))
	return &batchCursor{e: e, name: name, t1: t1, t2: t2, pairs: pairs, col: col}, nil
}

// release returns the cursor's decode buffers to colBufPool. The
// cursor's batches are invalid afterwards.
func (c *batchCursor) release() {
	for i, b := range c.bufs {
		if b != nil {
			colBufPool.Put(b)
			c.bufs[i] = nil
		}
	}
}

// Next returns the next non-empty batch, or a zero batch at exhaustion.
// The returned columns are read-only views (decode-cache backing, or the
// cursor's own decode buffers when the engine has no cache) that remain
// valid until the cursor advances. A cache-hit advance is
// allocation-free (see TestBatchCursorSteadyStateAllocs); the decode
// miss underneath is //etsqp:coldpath.
//
//etsqp:hotpath
func (c *batchCursor) Next() (Int64Batch, error) {
	for c.idx < len(c.pairs) {
		pp := c.pairs[c.idx]
		c.idx++
		if !c.replay {
			c.col.tuplesLoaded.Add(int64(pp.Count()))
		}
		traced := c.col.trace != nil && !c.timesOnly
		var batchStart time.Time
		if traced {
			batchStart = time.Now()
		}
		ts, err := c.column(pp.Time, 0)
		if err != nil {
			return Int64Batch{}, err
		}
		vals := ts
		if !c.timesOnly {
			if vals, err = c.column(pp.Value, 1); err != nil {
				return Int64Batch{}, err
			}
			c.col.valuesDecoded.Add(int64(len(vals)))
		}
		// Clip to the requested time range (page granularity loads extra).
		lo, hi := expr.TimeRangeBounds(ts, c.t1, c.t2)
		if traced {
			c.col.trace.addSlice(SliceEvent{
				StartRow: lo, EndRow: hi, Rows: hi - lo,
				DurNs: int64(time.Since(batchStart)),
			})
		}
		if lo >= hi {
			continue
		}
		if !c.replay {
			c.col.cursorBatches.Add(1)
		}
		return Int64Batch{Ts: ts[lo:hi], Vals: vals[lo:hi]}, nil
	}
	return Int64Batch{}, nil
}

// column decodes a whole page column: through the decoded-page cache
// when the engine has one, else into the cursor's decode buffer k.
//
//etsqp:hotpath
func (c *batchCursor) column(p *storage.Page, k int) ([]int64, error) {
	if c.e.Cache != nil {
		return c.e.decodeColumnRange(c.name, p, 0, p.Header.Count, c.col)
	}
	return c.decodeOwned(p, k)
}

// decodeOwned decodes a page column into the cursor's buffer k, taking
// one from colBufPool on first use and keeping any growth for the next
// page.
//
//etsqp:coldpath
func (c *batchCursor) decodeOwned(p *storage.Page, k int) ([]int64, error) {
	if c.bufs[k] == nil {
		c.bufs[k] = colBufPool.Get().(*[]int64)
	}
	vals, err := c.e.decodeColumnRangeUncached(*c.bufs[k], p, 0, p.Header.Count, c.col)
	if err != nil {
		return nil, err
	}
	*c.bufs[k] = vals
	return vals, nil
}

// cursorHead is the merge-side view of a cursor: the current batch and a
// position in it, refilled on demand. fillNs accumulates time spent
// inside Next so merge nodes can charge pure merge time to the merge
// stage without double counting the io/decode work Next performs.
type cursorHead struct {
	c      *batchCursor
	b      Int64Batch
	i      int
	eof    bool
	fillNs int64
}

// fill ensures the head points at a valid row (or sets eof).
//
//etsqp:hotpath
func (h *cursorHead) fill() error {
	for !h.eof && h.i >= h.b.Len() {
		start := time.Now()
		b, err := h.c.Next()
		h.fillNs += int64(time.Since(start))
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			h.eof = true
			return nil
		}
		h.b, h.i = b, 0
	}
	return nil
}

//etsqp:hotpath
func (h *cursorHead) ts() int64 { return h.b.Ts[h.i] }

//etsqp:hotpath
func (h *cursorHead) val() int64 { return h.b.Vals[h.i] }

// mergeCursors streams the time-ordered concatenation e1 ∘ e2 of two
// cursors (the batch form of expr.MergeByTime): equal timestamps merge
// into one row with both values, a missing side yields expr.NullValue.
// emit receives each row's time and left/right values and returns false
// to stop early (LIMIT). Pure merge time (batch refills excluded) is
// charged to the merge stage.
func mergeCursors(l, r *batchCursor, col *statsCollector, emit func(t, lv, rv int64) bool) error {
	lh, rh := &cursorHead{c: l}, &cursorHead{c: r}
	start := time.Now()
	defer func() {
		col.mergeNanos.Add(int64(time.Since(start)) - lh.fillNs - rh.fillNs)
	}()
	for {
		if err := lh.fill(); err != nil {
			return err
		}
		if err := rh.fill(); err != nil {
			return err
		}
		switch {
		case lh.eof && rh.eof:
			return nil
		case rh.eof || (!lh.eof && lh.ts() < rh.ts()):
			if !emit(lh.ts(), lh.val(), expr.NullValue) {
				return nil
			}
			lh.i++
		case lh.eof || rh.ts() < lh.ts():
			if !emit(rh.ts(), expr.NullValue, rh.val()) {
				return nil
			}
			rh.i++
		default:
			if !emit(lh.ts(), lh.val(), rh.val()) {
				return nil
			}
			lh.i++
			rh.i++
		}
	}
}

// joinCursors streams the natural (time-aligned) join of two cursors
// with the two-pointer merge of expr.NaturalJoin, batch-refilled on
// either side as it drains; when one side is exhausted the other side's
// remaining pages are never decoded. emit returns false to stop early.
func joinCursors(l, r *batchCursor, col *statsCollector, emit func(t, lv, rv int64) bool) error {
	lh, rh := &cursorHead{c: l}, &cursorHead{c: r}
	start := time.Now()
	defer func() {
		col.mergeNanos.Add(int64(time.Since(start)) - lh.fillNs - rh.fillNs)
	}()
	for {
		if err := lh.fill(); err != nil {
			return err
		}
		if err := rh.fill(); err != nil {
			return err
		}
		if lh.eof || rh.eof {
			return nil
		}
		switch {
		case lh.ts() < rh.ts():
			lh.i++
		case rh.ts() < lh.ts():
			rh.i++
		default:
			if !emit(lh.ts(), lh.val(), rh.val()) {
				return nil
			}
			lh.i++
			rh.i++
		}
	}
}
