package engine

import (
	"fmt"

	"etsqp/internal/exec"
	"etsqp/internal/storage"
)

// timeCuts splits [t1, t2] into up to n disjoint contiguous ranges cut
// at page boundaries of the series, so each range can be joined/merged
// by an independent worker and the per-range results concatenate in
// order — the time-range merge nodes of Figure 9.
func timeCuts(ser *storage.Series, t1, t2 int64, n int) [][2]int64 {
	if n < 1 {
		n = 1
	}
	pages := ser.PagesInRange(t1, t2)
	if len(pages) == 0 || n == 1 {
		return [][2]int64{{t1, t2}}
	}
	if n > len(pages) {
		n = len(pages)
	}
	per := len(pages) / n
	cuts := make([][2]int64, 0, n)
	start := t1
	for i := 1; i < n; i++ {
		// The cut sits just before the start of page i*per: ranges stay
		// disjoint and cover [t1, t2] without splitting a timestamp.
		cut := pages[i*per].StartTime() - 1
		if cut < start {
			continue
		}
		if cut >= t2 {
			break
		}
		cuts = append(cuts, [2]int64{start, cut})
		start = cut + 1
	}
	return append(cuts, [2]int64{start, t2})
}

// rowSink receives one range's rows. runRanged runs every range twice
// over the same page snapshot: a counting pass, in which the sink only
// counts rows, and — once the query's exact-size result is allocated — a
// writing pass, in which the sink writes each row once into the range's
// window of that result. Nothing is buffered between the passes but the
// counts and the page snapshots, so a query holds no scratch memory
// beyond its decode buffers.
type rowSink struct {
	n   int // rows emitted in the current pass
	max int // counting pass: stop once n reaches max (<= 0 = no cap)
	// rows and slab are the range's windows of the result and of its
	// one value slab; rows is nil in the counting pass.
	rows []Row
	slab []int64
	// pages are the page lists the counting pass's cursors read, by
	// cursor side, replayed by the writing pass.
	pages [2][]storage.PagePair
}

// counting reports whether this is the counting pass.
func (s *rowSink) counting() bool { return s.rows == nil }

// more reports whether the range may emit another row.
func (s *rowSink) more() bool {
	if s.rows != nil {
		return s.n < len(s.rows)
	}
	return s.max <= 0 || s.n < s.max
}

// add1 emits a one-value row and reports whether the range may go on.
func (s *rowSink) add1(t, v int64) bool {
	if s.rows != nil {
		w := s.slab[s.n : s.n+1 : s.n+1]
		w[0] = v
		s.rows[s.n] = Row{Time: t, Values: w}
	}
	s.n++
	return s.more()
}

// add2 emits a two-value row and reports whether the range may go on.
func (s *rowSink) add2(t, lv, rv int64) bool {
	if s.rows != nil {
		w := s.slab[2*s.n : 2*s.n+2 : 2*s.n+2]
		w[0], w[1] = lv, rv
		s.rows[s.n] = Row{Time: t, Values: w}
	}
	s.n++
	return s.more()
}

// cursor opens the range's batch cursor for one side (0 or 1) of the
// node. The counting pass resolves the series' pages and records them;
// it decodes values only when vals is set (value predicates decide
// which rows count). The writing pass replays the recorded pages, so
// both passes read one snapshot even while the series grows.
func (s *rowSink) cursor(e *Engine, side int, name string, t1, t2 int64, vals bool, col *statsCollector) (*batchCursor, error) {
	if s.counting() {
		c, err := e.newBatchCursor(name, t1, t2, col)
		if err != nil {
			return nil, err
		}
		c.timesOnly = !vals
		s.pages[side] = c.pairs
		return c, nil
	}
	return &batchCursor{e: e, name: name, t1: t1, t2: t2, pairs: s.pages[side], col: col, replay: true}, nil
}

// cursorPair opens the range's left and right cursors.
func (s *rowSink) cursorPair(e *Engine, left, right string, t1, t2 int64, vals bool, col *statsCollector) (*batchCursor, *batchCursor, error) {
	lc, err := s.cursor(e, 0, left, t1, t2, vals, col)
	if err != nil {
		return nil, nil, err
	}
	rc, err := s.cursor(e, 1, right, t1, t2, vals, col)
	if err != nil {
		return nil, nil, err
	}
	return lc, rc, nil
}

// runRanged executes fn over each time range and returns the first limit
// rows (limit <= 0 = all), of the given arity, in range order. Each pass
// is one morsel batch on the shared pool. The counting pass runs every
// range, each stopping once it alone could satisfy the limit (rows past
// it can never reach the result); the writing pass runs only the ranges
// that contribute rows, each into its own window of the result, so
// participants stay write-disjoint. fn must
// emit the same rows in both passes, which the replayed page snapshot
// guarantees for the cursor nodes. The query's collector (nil =
// unattributed) receives both batches' shared-pool accounting.
func (e *Engine) runRanged(ranges [][2]int64, arity, limit int, col *statsCollector, fn func(t1, t2 int64, out *rowSink) error) ([]Row, error) {
	var qs *exec.QueryStats
	if col != nil {
		qs = &col.execStats
	}
	sinks := make([]rowSink, len(ranges))
	err := e.pool().RunWith(qs, len(ranges), e.workers(), func(w *exec.Worker, i int) error {
		sinks[i].max = limit
		return fn(ranges[i][0], ranges[i][1], &sinks[i])
	})
	if err != nil {
		return nil, err
	}
	n, used := 0, 0
	for i := range sinks {
		c := sinks[i].n
		if limit > 0 {
			c = min(c, limit-n)
		}
		sinks[i].n = c
		n += c
		if c > 0 {
			used = i + 1
		}
	}
	if n == 0 {
		return nil, nil
	}
	rows, slab := make([]Row, n), make([]int64, n*arity)
	off := 0
	for i := range sinks[:used] {
		s := &sinks[i]
		c := s.n
		s.rows = rows[off : off+c : off+c]
		s.slab = slab[off*arity : (off+c)*arity : (off+c)*arity]
		s.n = 0
		off += c
	}
	err = e.pool().RunWith(qs, used, e.workers(), func(w *exec.Worker, i int) error {
		s := &sinks[i]
		if len(s.rows) == 0 {
			return nil
		}
		if err := fn(ranges[i][0], ranges[i][1], s); err != nil {
			return err
		}
		if s.n != len(s.rows) {
			return fmt.Errorf("engine: range %d wrote %d rows, counted %d", i, s.n, len(s.rows))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
