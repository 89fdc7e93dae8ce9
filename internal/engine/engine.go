// Package engine executes Table III-style queries over the page store,
// implementing Algorithm 2 (Pipe): a logical plan is compiled into
// per-worker pipeline jobs over pages/slices, decoders fuse with filters
// and aggregations, and time-range merge nodes combine multi-series
// results.
//
// The same engine runs in several execution modes so the evaluation can
// compare approaches on identical storage:
//
//	ModeETSQP       vectorized pipelines, operator fusion, page-aware
//	                scheduling (slices only when pages are scarce)
//	ModeETSQPPrune  ETSQP plus the Section V pruning rules
//	ModeSerial      value-at-a-time decoding, no vectorization
//	ModeSBoost      vectorized delta decoding but fixed layout, slices
//	                every page across all workers (per-slice prefix
//	                dependency), no fusion and no pruning
//	ModeFastLanes   FLMM1024 storage with its own block decoder, no
//	                fusion and no pruning
package engine

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"etsqp/internal/exec"
	"etsqp/internal/obs"
	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// Mode selects the execution strategy.
type Mode int

// Execution modes.
const (
	ModeETSQP Mode = iota
	ModeETSQPPrune
	ModeSerial
	ModeSBoost
	ModeFastLanes
)

// String names the mode as the evaluation figures label it.
func (m Mode) String() string {
	switch m {
	case ModeETSQP:
		return "ETSQP"
	case ModeETSQPPrune:
		return "ETSQP-prune"
	case ModeSerial:
		return "Serial"
	case ModeSBoost:
		return "SBoost"
	case ModeFastLanes:
		return "FastLanes"
	}
	return "Unknown"
}

// Engine executes queries against a store.
type Engine struct {
	Store   *storage.Store
	Mode    Mode
	Workers int // worker pipelines (p_c); defaults to GOMAXPROCS
	// ForceSlices, when positive, splits every page into that many slices
	// regardless of page availability — the Figure 14(c,d) ablation knob
	// for studying slice-dependency idle time vs materialization cost.
	ForceSlices int
	// UseHeaderStats answers SUM/COUNT/AVG over fully-covered pages from
	// the page-header sum statistic without touching the payload
	// (IoTDB-style statistics-level aggregation). Off by default so the
	// benchmark comparisons exercise the decoding pipelines.
	UseHeaderStats bool
	// Pool is the shared execution pool slice/page morsels run on. Nil
	// selects the process-wide exec.Default() pool, so concurrent engines
	// share one set of workers unless a test or server wires its own.
	Pool *exec.Pool
	// Cache, when non-nil, is the decoded-page cache consulted before
	// every page-column decode. Register its InvalidateSeries with
	// Store.OnMutate so ingest keeps it consistent.
	Cache *exec.PageCache
}

// New returns an engine with default worker count.
func New(store *storage.Store, mode Mode) *Engine {
	return &Engine{Store: store, Mode: mode, Workers: runtime.GOMAXPROCS(0)}
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// pool returns the execution pool morsel batches run on.
func (e *Engine) pool() *exec.Pool {
	if e.Pool != nil {
		return e.Pool
	}
	return exec.Default()
}

// WindowAgg is one sliding-window result row.
type WindowAgg struct {
	Index int
	Start int64
	End   int64
	Value float64
	Count int64
}

// Result carries query output plus execution statistics.
type Result struct {
	// Aggregates maps "SUM(A)"-style labels to values for plain
	// aggregation queries.
	Aggregates map[string]float64
	// Windows holds per-window aggregates for SW queries (one aggregate
	// item supported per window query).
	Windows []WindowAgg
	// Rows holds output tuples for star/join/merge/projection queries.
	// The rows share one value backing array: each Values is a
	// cap-limited window of it, so appending to one row's Values copies
	// it instead of overwriting the next row.
	Rows []Row
	// Stats reports the work done, for the throughput metrics.
	Stats Stats
}

// Row is one output tuple.
type Row struct {
	Time   int64
	Values []int64
}

// timeRange extracts the conjunctive TIME bounds from predicates,
// defaulting to (-inf, +inf).
func timeRange(preds []sqlparse.Pred) (t1, t2 int64) {
	t1, t2 = math.MinInt64+1, math.MaxInt64-1
	for _, p := range preds {
		if !p.Col.IsTime() {
			continue
		}
		switch p.Op {
		case opGE:
			if p.Value > t1 {
				t1 = p.Value
			}
		case opGT:
			if p.Value+1 > t1 {
				t1 = p.Value + 1
			}
		case opLE:
			if p.Value < t2 {
				t2 = p.Value
			}
		case opLT:
			if p.Value-1 < t2 {
				t2 = p.Value - 1
			}
		case opEQ:
			if p.Value > t1 {
				t1 = p.Value
			}
			if p.Value < t2 {
				t2 = p.Value
			}
		}
	}
	return t1, t2
}

// valuePreds returns the non-TIME predicates.
func valuePreds(preds []sqlparse.Pred) []sqlparse.Pred {
	var out []sqlparse.Pred
	for _, p := range preds {
		if !p.Col.IsTime() {
			out = append(out, p)
		}
	}
	return out
}

// rowsOut counts the result's output cardinality: tuples for row-shaped
// queries, window rows for SW queries, aggregate cells otherwise.
func (r *Result) rowsOut() int64 {
	return int64(len(r.Rows) + len(r.Windows) + len(r.Aggregates))
}

// Execute runs a parsed query.
func (e *Engine) Execute(q *sqlparse.Query) (*Result, error) {
	return e.executeTimed(q, nil)
}

// ExecuteTraced runs a parsed query with span collection feeding tr.
// The trace must be fresh (NewTrace); on success its span tree is
// assembled from the observed stage times. A nil trace is exactly
// Execute.
func (e *Engine) ExecuteTraced(q *sqlparse.Query, tr *Trace) (*Result, error) {
	return e.executeTimed(q, tr)
}

func (e *Engine) executeTimed(q *sqlparse.Query, tr *Trace) (*Result, error) {
	start := time.Now()
	res, err := e.execute(q, tr)
	if err != nil {
		if tr != nil {
			tr.fail(err, time.Since(start))
		}
		return nil, err
	}
	obs.EngineQueries.Inc()
	obs.EngineRowsOut.Add(res.rowsOut())
	if obs.Enabled() || tr != nil {
		elapsed := time.Since(start)
		if obs.Enabled() {
			obs.EngineTimeQuery.AddNanos(int64(elapsed))
			if tr != nil {
				// A traced query stamps its ID on the latency histogram as
				// an exemplar, so a /metrics bucket links to the trace.
				obs.EngineHistQuery.ObserveExemplar(int64(elapsed), tr.TraceID)
			} else {
				obs.EngineHistQuery.Observe(int64(elapsed))
			}
		}
		if tr != nil {
			tr.finish(res.Stats, elapsed)
		}
	}
	return res, nil
}

func (e *Engine) execute(q *sqlparse.Query, tr *Trace) (*Result, error) {
	switch {
	case q.Sub != nil:
		return e.executeSubqueryAgg(q, tr)
	case q.UnionWith != "":
		return e.executeMerge(q, tr)
	case len(q.Series) == 2:
		if q.Items[0].Agg == sqlparse.AggCorr {
			return e.executeJoinCorr(q, tr)
		}
		return e.executeJoin(q, tr)
	case len(q.Series) == 1:
		if q.Items[0].Star {
			return e.executeScan(q, tr)
		}
		return e.executeAgg(q, q.Series[0], q.Preds, tr)
	default:
		return nil, fmt.Errorf("engine: unsupported query shape")
	}
}

// ExecuteSQL parses and runs a statement.
func (e *Engine) ExecuteSQL(sql string) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Execute(q)
}

// TraceSQL parses, plans and runs a statement with tracing on, returning
// the result together with the assembled span tree. The parse and plan
// phases are timed into their own spans; planning reuses the EXPLAIN
// machinery, so a traced query also validates its plan shape. When
// execution itself fails (e.g. a Section VI-C aggregate overflow) the
// trace is still returned with the failure recorded, so serving layers
// can log what the query did before it errored; parse and plan failures
// return a nil trace — nothing executed.
func (e *Engine) TraceSQL(sql string) (*Result, *Trace, error) {
	tr := NewTrace(sql, e.Mode.String(), e.workers())
	parseStart := time.Now()
	q, err := sqlparse.Parse(sql)
	tr.parseNs = int64(time.Since(parseStart))
	if err != nil {
		return nil, nil, err
	}
	planStart := time.Now()
	if _, err := e.explainQuery(q); err != nil {
		return nil, nil, err
	}
	tr.planNs = int64(time.Since(planStart))
	res, err := e.ExecuteTraced(q, tr)
	if err != nil {
		return nil, tr, err
	}
	return res, tr, nil
}

// executeSubqueryAgg handles Q3: SELECT agg(A) FROM (SELECT * FROM ts
// WHERE ...). The filter pushes down into the aggregation pipeline
// (Equation 1's single-column predicate separation).
func (e *Engine) executeSubqueryAgg(q *sqlparse.Query, tr *Trace) (*Result, error) {
	sub := q.Sub
	if sub.Sub != nil || len(sub.Series) != 1 || !sub.Items[0].Star {
		return nil, fmt.Errorf("engine: only single-series star subqueries are supported")
	}
	outer := *q
	outer.Sub = nil
	outer.Series = sub.Series
	outer.Window = q.Window
	if outer.Window == nil {
		outer.Window = sub.Window
	}
	preds := append(append([]sqlparse.Pred(nil), sub.Preds...), q.Preds...)
	return e.executeAgg(&outer, sub.Series[0], preds, tr)
}
