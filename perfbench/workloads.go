package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"etsqp/internal/baseline"
	"etsqp/internal/dataset"
	"etsqp/internal/engine"
	"etsqp/internal/exec"
	"etsqp/internal/storage"
)

// Workload sizes, chosen so that half of a 15 s run — the traced run's
// untraced half, which reports the p99 — holds well over 1000 queries on
// a 2-CPU host. agg-scan carries serve's 64 MiB decoded-page cache,
// though in prune mode its aggregations run on the encoded pages and do
// not consult it (exec.cache_hit_ratio shows this).
const (
	aggRows       = 300_000 // rows per Table II dataset
	aggCacheBytes = 64 << 20
	exportRows    = 10_000 // ts1 rows per dataset; ts2 has half
)

// aggDatasets are the Table II datasets agg-scan stores, one series each.
var aggDatasets = []string{"Atm", "Clim", "Gas", "Time", "Sine", "TPCH"}

// exportDatasets are the datasets row-export stores as ts1/ts2 pairs.
var exportDatasets = []string{"Atm", "Gas", "Sine"}

// datasetSeed derives a dataset's generator seed from the run seed.
func datasetSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func runAggScan(cfg config, rep *report) error {
	return runInproc(cfg, rep, inprocWorkload{
		clients: 2,
		setup:   setupAggScan(aggRows),
		ops:     aggScanOps,
		params: map[string]any{
			"mode": "prune", "clients": 2, "loop": "closed", "rows_per_dataset": aggRows,
			"datasets": aggDatasets, "cache_bytes": aggCacheBytes, "value_codec": storage.DefaultValueCodec,
		},
	})
}

// setupAggScan generates the six datasets, encodes attribute 0 of each
// into TS2DIFF pages, and wires the engine as etsqp-cli serve does: a
// shared pool and a decoded-page cache invalidated on ingest.
func setupAggScan(rows int) func(seed int64) (*inprocEnv, error) {
	return func(seed int64) (*inprocEnv, error) { return buildAggScan(rows, seed) }
}

func buildAggScan(rows int, seed int64) (*inprocEnv, error) {
	st := storage.NewStore()
	env := &inprocEnv{store: st, raw: map[string]columns{}}
	for i, label := range aggDatasets {
		d, err := dataset.Generate(label, rows, datasetSeed(seed, i))
		if err != nil {
			return nil, err
		}
		name := strings.ToLower(label)
		if err := st.Append(name, d.Time, d.Attrs[0], storage.Options{}); err != nil {
			return nil, err
		}
		env.raw[name] = columns{ts: d.Time, vals: d.Attrs[0]}
		env.series = append(env.series, name)
	}
	env.pool = exec.NewPool(0)
	cache := exec.NewPageCache(aggCacheBytes)
	st.OnMutate(func(series string) { cache.InvalidateSeries(series) })
	env.eng = engine.New(st, engine.ModeETSQPPrune)
	env.eng.Pool, env.eng.Cache = env.pool, cache
	return env, nil
}

// aggScanOps builds the paper's aggregation queries over every series —
// Q1 (SW SUM), Q2 (SW AVG), Q3 (value filter at selectivity 0.5) and QT
// (time range over half the rows, placed by the seed) — with answers
// folded from the generated columns.
func aggScanOps(env *inprocEnv, seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for _, name := range env.series {
		c := env.raw[name]
		n := len(c.ts)
		t0, tLast := c.ts[0], c.ts[n-1]
		winDT := (tLast - t0) / int64(n-1) * 1000 // 10^3 points per window
		sums, counts := windowFolds(c, t0, winDT)
		ops = append(ops,
			op{name: name + "/Q1", sql: fmt.Sprintf("SELECT SUM(A) FROM %s SW(%d, %d)", name, t0, winDT),
				check: checkWindows(t0, winDT, sums, counts, false)},
			op{name: name + "/Q2", sql: fmt.Sprintf("SELECT AVG(A) FROM %s SW(%d, %d)", name, t0, winDT),
				check: checkWindows(t0, winDT, sums, counts, true)})

		sorted := append([]int64(nil), c.vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		med := sorted[n/2]
		var above int64
		for _, v := range c.vals {
			if v > med {
				above += v
			}
		}
		ops = append(ops, op{name: name + "/Q3",
			sql:   fmt.Sprintf("SELECT SUM(A) FROM (SELECT * FROM %s WHERE A > %d)", name, med),
			check: checkAggregate("SUM(A)", float64(above))})

		lo := rng.Intn(n / 2)
		hi := lo + n/2 - 1
		var rangeSum int64
		for _, v := range c.vals[lo : hi+1] {
			rangeSum += v
		}
		ops = append(ops, op{name: name + "/QT",
			sql:   fmt.Sprintf("SELECT SUM(A) FROM %s WHERE TIME >= %d AND TIME <= %d", name, c.ts[lo], c.ts[hi]),
			check: checkAggregate("SUM(A)", float64(rangeSum))})
	}
	return ops, nil
}

// windowFolds sums and counts the values of each tumbling window
// [t0 + k·dt, t0 + (k+1)·dt) up to the last timestamp.
func windowFolds(c columns, t0, dt int64) (sums, counts []int64) {
	k := int((c.ts[len(c.ts)-1]-t0)/dt) + 1
	sums, counts = make([]int64, k), make([]int64, k)
	for i, t := range c.ts {
		w := (t - t0) / dt
		sums[w] += c.vals[i]
		counts[w]++
	}
	return sums, counts
}

// checkWindows compares window rows with the folds: bounds and integer
// counts exactly, SUM exactly, AVG to within float rounding.
func checkWindows(t0, dt int64, sums, counts []int64, avg bool) func(*engine.Result) error {
	return func(res *engine.Result) error {
		if len(res.Windows) != len(sums) {
			return fmt.Errorf("%d windows, want %d", len(res.Windows), len(sums))
		}
		for k, w := range res.Windows {
			start := t0 + int64(k)*dt
			if w.Start != start || w.End != start+dt || w.Count != counts[k] {
				return fmt.Errorf("window %d: [%d, %d) count %d, want [%d, %d) count %d",
					k, w.Start, w.End, w.Count, start, start+dt, counts[k])
			}
			if counts[k] == 0 {
				continue
			}
			want := float64(sums[k])
			if avg {
				want /= float64(counts[k])
				if math.Abs(w.Value-want) > 1e-9*math.Max(1, math.Abs(want)) {
					return fmt.Errorf("window %d: AVG %v, want %v", k, w.Value, want)
				}
			} else if w.Value != want {
				return fmt.Errorf("window %d: SUM %v, want %v", k, w.Value, want)
			}
		}
		return nil
	}
}

// checkAggregate compares one aggregate cell exactly.
func checkAggregate(label string, want float64) func(*engine.Result) error {
	return func(res *engine.Result) error {
		got, ok := res.Aggregates[label]
		if !ok {
			return fmt.Errorf("no %s in result", label)
		}
		if got != want {
			return fmt.Errorf("%s = %v, want %v", label, got, want)
		}
		return nil
	}
}

func runRowExport(cfg config, rep *report) error {
	return runInproc(cfg, rep, inprocWorkload{
		clients: 2,
		render:  true,
		setup:   setupRowExport(exportRows),
		ops:     rowExportOps,
		params: map[string]any{
			"mode": "etsqp", "clients": 2, "loop": "closed", "ts1_rows": exportRows,
			"datasets": exportDatasets, "cache_bytes": 0, "render": "cli.RenderResult, all rows",
		},
	})
}

// setupRowExport stores, per dataset, ts1 (attribute 0 on every
// timestamp) and ts2 (the last attribute on every other timestamp), as
// internal/bench builds them, under names like atm1/atm2.
func setupRowExport(rows int) func(seed int64) (*inprocEnv, error) {
	return func(seed int64) (*inprocEnv, error) { return buildRowExport(rows, seed) }
}

func buildRowExport(rows int, seed int64) (*inprocEnv, error) {
	st := storage.NewStore()
	env := &inprocEnv{store: st, raw: map[string]columns{}}
	for i, label := range exportDatasets {
		d, err := dataset.Generate(label, rows, datasetSeed(seed, i))
		if err != nil {
			return nil, err
		}
		a2 := d.Attrs[len(d.Attrs)-1]
		var t2, v2 []int64
		for r := 0; r < rows; r += 2 {
			t2 = append(t2, d.Time[r])
			v2 = append(v2, a2[r])
		}
		base := strings.ToLower(label)
		for _, s := range []struct {
			name string
			c    columns
		}{{base + "1", columns{d.Time, d.Attrs[0]}}, {base + "2", columns{t2, v2}}} {
			if err := st.Append(s.name, s.c.ts, s.c.vals, storage.Options{}); err != nil {
				return nil, err
			}
			env.raw[s.name] = s.c
			env.series = append(env.series, s.name)
		}
	}
	env.eng = engine.New(st, engine.ModeETSQP)
	return env, nil
}

// rowExportOps builds Q4 (join + projection), Q5 (UNION ORDER BY TIME),
// Q6 (natural join) and a LIMIT scan per dataset pair, with row counts
// and checksums from the internal/baseline scalar oracles.
func rowExportOps(env *inprocEnv, seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for _, label := range exportDatasets {
		base := strings.ToLower(label)
		s1, s2 := base+"1", base+"2"
		l, r := env.raw[s1], env.raw[s2]
		join := baseline.ScalarJoin(l.ts, l.vals, r.ts, r.vals)
		merged := baseline.ScalarConcat(l.ts, l.vals, r.ts, r.vals)
		proj, natural, union := newRowSum(), newRowSum(), newRowSum()
		for _, j := range join {
			proj.add(j.Time, j.L+j.R)
			natural.add(j.Time, j.L, j.R)
		}
		for _, m := range merged {
			union.add(m.Time, m.L, m.R)
		}
		limit := len(l.ts)/4 + rng.Intn(len(l.ts)/4)
		scan := newRowSum()
		for i := 0; i < limit; i++ {
			scan.add(l.ts[i], l.vals[i])
		}
		ops = append(ops,
			op{name: base + "/Q4", sql: fmt.Sprintf("SELECT %s.A + %s.A FROM %s, %s", s1, s2, s1, s2), check: proj.check},
			op{name: base + "/Q5", sql: fmt.Sprintf("SELECT * FROM %s UNION %s ORDER BY TIME", s1, s2), check: union.check},
			op{name: base + "/Q6", sql: fmt.Sprintf("SELECT * FROM %s, %s", s1, s2), check: natural.check},
			op{name: base + "/LIMIT", sql: fmt.Sprintf("SELECT * FROM %s LIMIT %d", s1, limit), check: scan.check})
	}
	return ops, nil
}

// rowSum is a row count and an order-sensitive checksum of result rows.
type rowSum struct {
	rows int
	sum  uint64
}

func newRowSum() *rowSum { return &rowSum{sum: 14695981039346656037} }

// mix folds one value into an FNV-style running hash.
func mix(h uint64, v int64) uint64 { return (h ^ uint64(v)) * 1099511628211 }

func (s *rowSum) add(t int64, vals ...int64) {
	s.rows++
	s.sum = mix(s.sum, t)
	for _, v := range vals {
		s.sum = mix(s.sum, v)
	}
	s.sum = mix(s.sum, -1) // row separator
}

func (s *rowSum) check(res *engine.Result) error {
	got := newRowSum()
	for _, r := range res.Rows {
		got.add(r.Time, r.Values...)
	}
	if got.rows != s.rows || got.sum != s.sum {
		return fmt.Errorf("%d rows checksum %016x, want %d rows checksum %016x", got.rows, got.sum, s.rows, s.sum)
	}
	return nil
}
