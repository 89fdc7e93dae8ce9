package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"etsqp/internal/cli"
	"etsqp/internal/engine"
	"etsqp/internal/exec"
	"etsqp/internal/obs"
	"etsqp/internal/sqlparse"
	"etsqp/internal/storage"
)

// op is one catalogue query: its SQL and the check of its result.
type op struct {
	name  string
	sql   string
	check func(res *engine.Result) error
}

// columns are the generated (timestamp, value) columns of one series.
type columns struct{ ts, vals []int64 }

// inprocEnv is an in-process workload: a store, the engine over it,
// wired as the workload specifies, and the generated inputs.
type inprocEnv struct {
	store  *storage.Store
	eng    *engine.Engine
	pool   *exec.Pool // nil when the engine uses the default pool
	raw    map[string]columns
	series []string // series names in generation order
}

func (env *inprocEnv) release() {
	if env != nil && env.pool != nil {
		env.pool.Close()
	}
}

// storedBytesPerPoint is the encoded payload size over the point count.
func storedBytesPerPoint(st *storage.Store) float64 {
	var bytes, points int
	for _, name := range st.Names() {
		ser, _ := st.Series(name)
		bytes += ser.EncodedBytes()
		points += ser.NumPoints()
	}
	return float64(bytes) / float64(points)
}

// inprocWorkload describes how an in-process workload is built and run.
type inprocWorkload struct {
	clients int
	render  bool // render each result in full through cli.RenderResult
	setup   func(seed int64) (*inprocEnv, error)
	ops     func(env *inprocEnv, seed int64) ([]op, error)
	params  map[string]any
}

// warmupFor is how long a workload's own loop runs, untimed, before a
// measured window of d.
func warmupFor(d time.Duration) time.Duration {
	return min(3*time.Second, d/4)
}

// runOne executes one query untraced and checks it; the latency covers
// execution plus, when rendering, the full render.
func runOne(eng *engine.Engine, o *op, render bool) outcome {
	start := time.Now()
	res, err := eng.ExecuteSQL(o.sql)
	var cw countingWriter
	if err == nil && render {
		cli.RenderResult(&cw, res, 0)
	}
	lat := time.Since(start)
	if err != nil {
		return outcome{lat: lat, err: fmt.Errorf("%s: %w", o.name, err)}
	}
	return outcome{lat: lat, tuples: res.Stats.TuplesLoaded, err: checkResult(o, res, render, cw)}
}

func checkResult(o *op, res *engine.Result, render bool, cw countingWriter) error {
	if err := o.check(res); err != nil {
		return fmt.Errorf("%s: %w", o.name, err)
	}
	if render {
		// One line per row, window or aggregate, plus the stats line.
		want := int64(len(res.Rows)+len(res.Windows)+len(res.Aggregates)) + 1
		if cw.lines != want {
			return fmt.Errorf("%s: rendered %d lines, want %d", o.name, cw.lines, want)
		}
	}
	return nil
}

// runInproc drives an in-process workload: set-up, the closed loop, and
// either the end-to-end metrics or the traced per-layer run.
func runInproc(cfg config, rep *report, w inprocWorkload) error {
	setups := cfg.setups
	if cfg.trace {
		setups = 1 // setup_s is an end-to-end metric
	}
	env, setupS, setupTimes, err := timeSetups(setups,
		func() (*inprocEnv, error) { return w.setup(cfg.seed) },
		func(e *inprocEnv) { e.release() })
	if err != nil {
		return err
	}
	defer env.release()
	ops, err := w.ops(env, cfg.seed)
	if err != nil {
		return err
	}
	if !cfg.trace {
		// Only the traced run's probes need the generated columns; the
		// answers are already folded. Dropping them keeps the heap the
		// measured loop shares with the engine to the program's own.
		env.raw = nil
	}
	rep.Record["params"] = w.params
	rep.Record["setup_s_samples"] = setupTimes
	rep.Record["catalogue"] = opNames(ops)

	one := func(_ int, i int) outcome { return runOne(env.eng, &ops[i], w.render) }
	// Warm-up: one pass over the catalogue, then the loop itself for a
	// while, so caches fill and the heap reaches its steady size before
	// timing. Wrong answers here count too.
	for i := range ops {
		loopTotals(rep, []outcome{runOne(env.eng, &ops[i], w.render)})
	}
	warm, _ := closedLoop(w.clients, warmupFor(cfg.duration()), cfg.seed, len(ops), one)
	loopTotals(rep, warm)
	if cfg.trace {
		return tracedInproc(cfg, rep, w, env, ops)
	}
	runtime.GC()
	before := readRuntime()
	heap := startHeapSampler(liveHeap)
	outs, wall := closedLoop(w.clients, cfg.duration(), cfg.seed, len(ops), one)
	peak := heap.finish()
	delta := readRuntime().sub(before)
	loopTotals(rep, outs)
	reportEndToEnd(rep, outs, wall, setupS, opNames(ops))
	rep.set("alloc_bytes_per_query", "B", float64(delta.allocBytes)/float64(len(outs)))
	rep.set("peak_heap_mb", "MiB", peak)
	rep.set("stored_bytes_per_point", "B", storedBytesPerPoint(env.store))
	rep.Correct = rep.Failed == 0
	return nil
}

// reportEndToEnd sets the timing, rate and success metrics of a measured
// window — p50 and rates as the median over its sub-windows — and
// records the window's p99 with its sample count, the per-query figures
// and every sub-window. The p99 is reported as a metric by the traced
// run: its run-to-run spread on a shared host is wider than any bound
// an end-to-end metric may have.
func reportEndToEnd(rep *report, outs []outcome, wall time.Duration, setupS float64, names []string) {
	med, per := windowed(outs, wall)
	var lat []time.Duration
	byOp := make([][]time.Duration, len(names))
	for _, o := range outs {
		if o.err == nil {
			lat = append(lat, o.lat)
			byOp[o.op] = append(byOp[o.op], o.lat)
		}
	}
	ops := map[string]latencySummary{}
	for i, l := range byOp {
		ops[names[i]] = summarize(l)
	}
	pooled := summarize(lat)
	rep.Record["latency_by_query"] = ops
	rep.Record["latency"] = pooled
	rep.Record["windows"] = per
	rep.Record["wall_s"] = wall.Seconds()
	if pooled.Samples < 1000 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples: fewer than ten beyond the p99\n", pooled.Samples)
	}
	rep.set("setup_s", "s", setupS)
	rep.set("latency_p50_ms", "ms", med.P50ms)
	rep.set("throughput_qps", "1/s", med.QPS)
	rep.set("mtuples_per_s", "Mtuples/s", med.TuplesPerS/1e6)
	rep.set("success_rate", "ratio", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted))
}

// clientGapMs is the mean time per query that closed-loop clients spent
// outside the timed calls.
func clientGapMs(lat []time.Duration, wall time.Duration, clients int) float64 {
	busy := time.Duration(0)
	for _, d := range lat {
		busy += d
	}
	return float64(time.Duration(clients)*wall-busy) / 1e6 / float64(len(lat))
}

func opNames(ops []op) []string {
	out := make([]string, len(ops))
	for i := range ops {
		out[i] = ops[i].name
	}
	return out
}

// tracedInproc is the per-layer run of an in-process workload: half the
// window untraced, half traced through the benchmark's spans, then the
// layer probes over the same store.
func tracedInproc(cfg config, rep *report, w inprocWorkload, env *inprocEnv, ops []op) error {
	half := cfg.duration() / 2
	one := func(_ int, i int) outcome { return runOne(env.eng, &ops[i], w.render) }

	runtime.GC()
	before := readRuntime()
	outs, wall := closedLoop(w.clients, half, cfg.seed, len(ops), one)
	delta := readRuntime().sub(before)
	lat := loopTotals(rep, outs)
	untraced := summarize(lat)
	rep.set("latency_p99_ms", "ms", untraced.P99ms)
	n := float64(len(outs))
	rep.set("runtime.mallocs_per_query", "count", float64(delta.mallocs)/n)
	rep.set("runtime.gc_cycles_per_query", "count", float64(delta.gcCycles)/n)
	rep.set("runtime.gc_pause_ms_per_s", "ms/s", float64(delta.pauseNs)/1e6/wall.Seconds())

	tr := newTracer()
	acc := newStatsAcc()
	obs.Enable()
	obsBefore := obs.Capture()
	runtime.GC()
	touts, twall := closedLoop(w.clients, half, cfg.seed+1, len(ops), func(_ int, i int) outcome {
		o, st := runTracedOne(env.eng, &ops[i], w.render, tr)
		acc.add(st)
		return o
	})
	obsDelta := obs.Capture().Delta(obsBefore)
	obs.Disable()
	tlat := loopTotals(rep, touts)
	traced := summarize(tlat)
	rep.Record["latency_untraced"] = untraced
	rep.Record["latency_traced"] = traced
	rep.set("trace.overhead_frac", "ratio", traced.P50ms/untraced.P50ms-1)
	acc.report(rep, obsDelta, twall)
	tr.reportSelf(rep)
	// A closed loop has no schedule; its generator lateness is the time
	// each client spends between queries (checking answers).
	rep.set("generator.late_ms", "ms", clientGapMs(lat, wall, w.clients))
	if err := probeLayers(cfg, rep, env, ops, tr); err != nil {
		return err
	}
	if err := tr.write(cfg, rep); err != nil {
		return err
	}
	rep.Correct = rep.Failed == 0
	return nil
}

// runTracedOne executes one query through the benchmark's spans: a root
// query span with parse, execute (the engine's stage spans attached
// beneath it) and render children.
func runTracedOne(eng *engine.Engine, o *op, render bool, tr *tracer) (outcome, engine.Stats) {
	root := tr.begin(0, "query")
	start := time.Now()
	p := tr.begin(root, "parse")
	q, err := sqlparse.Parse(o.sql)
	tr.end(p)
	var res *engine.Result
	if err == nil {
		x := tr.begin(root, "execute")
		etr := engine.NewTrace(o.sql, eng.Mode.String(), eng.Workers)
		res, err = eng.ExecuteTraced(q, etr)
		tr.end(x)
		tr.attach(x, etr.Root.Children)
	}
	var cw countingWriter
	if err == nil && render {
		r := tr.begin(root, "render")
		cli.RenderResult(&cw, res, 0)
		tr.end(r)
	}
	lat := time.Since(start)
	tr.end(root)
	if err != nil {
		return outcome{lat: lat, err: fmt.Errorf("%s: %w", o.name, err)}, engine.Stats{}
	}
	return outcome{lat: lat, tuples: res.Stats.TuplesLoaded, err: checkResult(o, res, render, cw)}, res.Stats
}
