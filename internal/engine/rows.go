package engine

import (
	"fmt"
	"math"
	"time"

	"etsqp/internal/exec"
	"etsqp/internal/expr"
	"etsqp/internal/obs"
	"etsqp/internal/pipeline"
	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// sliceJob pairs a pipeline slice with the pre-carved destination
// windows of the shared output columns, so each worker goroutine owns
// exactly the rows it decodes.
type sliceJob struct {
	sl         pipeline.Slice
	tdst, vdst []int64
}

// readSeriesColumns decodes the [t1, t2] portion of a series into flat
// columns, running the pages/slices as one morsel batch on the shared
// pool and writing each slice's rows into its disjoint output range (no
// merge copying).
func (e *Engine) readSeriesColumns(name string, t1, t2 int64, col *statsCollector) ([]int64, []int64, error) {
	ser, ok := e.Store.Series(name)
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown series %q", name)
	}
	var loaded []storage.PagePair
	total := 0
	offsets := make(map[*storage.Page]int)
	for _, pp := range ser.PagesInRange(t1, t2) {
		col.pagesTotal.Add(1)
		offsets[pp.Time] = total
		total += pp.Count()
		loaded = append(loaded, pp)
	}
	ts := make([]int64, total)
	vals := make([]int64, total)
	// Carve each slice's disjoint output window up front: a morsel then
	// writes only through its own sliceJob destinations, never through
	// the shared columns, so participants are write-disjoint regardless
	// of which worker steals which morsel.
	jobs := e.jobsFor(loaded)
	nm := 0
	for _, slices := range jobs {
		nm += len(slices)
	}
	morsels := make([]sliceJob, 0, nm)
	for _, slices := range jobs {
		for _, sl := range slices {
			base := offsets[sl.Pair.Time]
			morsels = append(morsels, sliceJob{
				sl:   sl,
				tdst: ts[base+sl.StartRow : base+sl.EndRow],
				vdst: vals[base+sl.StartRow : base+sl.EndRow],
			})
		}
	}
	err := e.pool().RunWith(&col.execStats, len(morsels), e.workers(), func(w *exec.Worker, i int) error {
		j := morsels[i]
		col.slicesRun.Add(1)
		col.tuplesLoaded.Add(int64(j.sl.Rows()))
		obs.EngineHistSliceRows.Observe(int64(j.sl.Rows()))
		var sliceStart time.Time
		if col.trace != nil {
			sliceStart = time.Now()
		}
		tcol, err := e.decodeColumnRange(name, j.sl.Pair.Time, j.sl.StartRow, j.sl.EndRow, col)
		if err != nil {
			return err
		}
		vcol, err := e.decodeColumnRange(name, j.sl.Pair.Value, j.sl.StartRow, j.sl.EndRow, col)
		if err != nil {
			return err
		}
		col.valuesDecoded.Add(int64(len(vcol)))
		copy(j.tdst, tcol)
		copy(j.vdst, vcol)
		if col.trace != nil {
			col.trace.addSlice(SliceEvent{
				StartRow: j.sl.StartRow, EndRow: j.sl.EndRow, Rows: j.sl.Rows(),
				DurNs: int64(time.Since(sliceStart)),
			})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Trim to the requested time range (page granularity loaded extra).
	lo, hi := expr.TimeRangeBounds(ts, t1, t2)
	return ts[lo:hi], vals[lo:hi], nil
}

// executeScan handles SELECT * FROM series [WHERE ...]: decoded rows with
// predicates applied. A LIMIT scan streams through a batch cursor as a
// single runRanged range, so it stops decoding pages once the limit is
// satisfied; an unbounded scan materializes all pages in parallel on the
// shared pool, counts the matching rows and writes them into an
// exact-size result.
func (e *Engine) executeScan(q *sqlparse.Query, tr *Trace) (*Result, error) {
	t1, t2 := timeRange(q.Preds)
	vp := valuePreds(q.Preds)
	col := newCollector(tr)
	if q.Limit > 0 {
		rows, err := e.runRanged([][2]int64{{t1, t2}}, 1, q.Limit, col, func(a, b int64, out *rowSink) error {
			cur, err := out.cursor(e, 0, q.Series[0], a, b, len(vp) > 0, col)
			if err != nil {
				return err
			}
			defer cur.release()
			for more := true; more; {
				b, err := cur.Next()
				if err != nil || b.Len() == 0 {
					return err
				}
				timed(&col.filterNanos, func() error {
					for i := 0; i < b.Len() && more; i++ {
						if predsMatch(vp, b.Vals[i]) {
							more = out.add1(b.Ts[i], b.Vals[i])
						}
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows, Stats: col.finish()}, nil
	}
	ts, vals, err := e.readSeriesColumns(q.Series[0], t1, t2, col)
	if err != nil {
		return nil, err
	}
	var out rowSink
	timed(&col.filterNanos, func() error {
		n := 0
		for _, v := range vals {
			if predsMatch(vp, v) {
				n++
			}
		}
		if n == 0 {
			return nil
		}
		out.rows, out.slab = make([]Row, n), make([]int64, n)
		for i, v := range vals {
			if predsMatch(vp, v) {
				out.add1(ts[i], v)
			}
		}
		return nil
	})
	return &Result{Rows: out.rows, Stats: col.finish()}, nil
}

// executeMerge handles Q5: SELECT * FROM ts1 UNION ts2 ORDER BY TIME —
// series concatenation with time-range merge nodes (Figure 9(a)): the
// covered interval is cut at page boundaries, each range is decoded and
// merged by an independent worker, and the per-range results fill
// consecutive windows of the result in time order. The counting pass
// merges timestamps only.
func (e *Engine) executeMerge(q *sqlparse.Query, tr *Trace) (*Result, error) {
	if len(q.Series) != 1 {
		return nil, fmt.Errorf("engine: UNION requires a single left series")
	}
	t1, t2 := timeRange(q.Preds)
	col := newCollector(tr)
	serL, ok := e.Store.Series(q.Series[0])
	if !ok {
		return nil, fmt.Errorf("engine: unknown series %q", q.Series[0])
	}
	ranges := timeCuts(serL, t1, t2, e.workers())
	col.mergeRanges.Add(int64(len(ranges)))
	rows, err := e.runRanged(ranges, 2, q.Limit, col, func(a, b int64, out *rowSink) error {
		lc, rc, err := out.cursorPair(e, q.Series[0], q.UnionWith, a, b, false, col)
		if err != nil {
			return err
		}
		defer lc.release()
		defer rc.release()
		return mergeCursors(lc, rc, col, out.add2)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Rows: rows, Stats: col.finish()}, nil
}

// executeJoin handles Q4 (projection over join) and Q6 (natural join):
// the shared time interval is partitioned into ranges, each worker
// decodes both series for its range and produces join masks within it
// (Figure 9(b): mask vectors are generated within the shared time range),
// and the merge node concatenates results in order (Equation 6). The
// counting pass joins timestamps only, unless value predicates decide
// which joined rows count.
func (e *Engine) executeJoin(q *sqlparse.Query, tr *Trace) (*Result, error) {
	t1, t2 := timeRange(q.Preds)
	col := newCollector(tr)
	serL, ok := e.Store.Series(q.Series[0])
	if !ok {
		return nil, fmt.Errorf("engine: unknown series %q", q.Series[0])
	}
	vp := valuePreds(q.Preds)
	item := q.Items[0]
	if !item.Star && item.Add == nil {
		return nil, fmt.Errorf("engine: unsupported join projection")
	}
	arity := 1
	if item.Star {
		arity = 2
	}
	ranges := timeCuts(serL, t1, t2, e.workers())
	col.mergeRanges.Add(int64(len(ranges)))
	rows, err := e.runRanged(ranges, arity, q.Limit, col, func(a, b int64, out *rowSink) error {
		lc, rc, err := out.cursorPair(e, q.Series[0], q.Series[1], a, b, len(vp) > 0, col)
		if err != nil {
			return err
		}
		defer lc.release()
		defer rc.release()
		return joinCursors(lc, rc, col, func(t, lv, rv int64) bool {
			if !joinPredsMatch(vp, q.Series, lv, rv) {
				return true
			}
			if item.Star {
				return out.add2(t, lv, rv)
			}
			return out.add1(t, lv+rv)
		})
	})
	if err != nil {
		return nil, err
	}
	return &Result{Rows: rows, Stats: col.finish()}, nil
}

// joinPredsMatch applies qualified value predicates to a joined row.
func joinPredsMatch(vp []sqlparse.Pred, series []string, lv, rv int64) bool {
	for _, p := range vp {
		v := lv
		if p.Col.Series != "" && len(series) == 2 && p.Col.Series == series[1] {
			v = rv
		}
		if !p.Op.Eval(v, p.Value) {
			return false
		}
	}
	return true
}

// executeJoinCorr handles SELECT CORR(ts1.A, ts2.A) FROM ts1, ts2: the
// Σ aᵢ·bᵢ application of Section IV. Both series decode and join on
// timestamps; the Pearson correlation is computed from the fused sums
// (Σa, Σb, Σa², Σb², Σab) of the joined rows.
func (e *Engine) executeJoinCorr(q *sqlparse.Query, tr *Trace) (*Result, error) {
	t1, t2 := timeRange(q.Preds)
	col := newCollector(tr)
	lts, lvs, err := e.readSeriesColumns(q.Series[0], t1, t2, col)
	if err != nil {
		return nil, err
	}
	rts, rvs, err := e.readSeriesColumns(q.Series[1], t1, t2, col)
	if err != nil {
		return nil, err
	}
	var sa, sb, sab float64
	var saa, sbb float64
	var n float64
	err = timed(&col.aggNanos, func() error {
		left, right := expr.NaturalJoin(lts, rts)
		for k := range left {
			a := float64(lvs[left[k]])
			b := float64(rvs[right[k]])
			sa += a
			sb += b
			saa += a * a
			sbb += b * b
			sab += a * b
			n++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("engine: CORR over empty join")
	}
	cov := sab/n - sa/n*sb/n
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	if va <= 0 || vb <= 0 {
		return nil, fmt.Errorf("engine: CORR undefined for zero variance")
	}
	r := cov / math.Sqrt(va*vb)
	return &Result{
		Aggregates: map[string]float64{"CORR(A,B)": r},
		Stats:      col.finish(),
	}, nil
}
