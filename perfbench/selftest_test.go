package main

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"etsqp/internal/dataset"
	"etsqp/internal/engine"
	"etsqp/internal/exec"
	"etsqp/internal/serve"
	"etsqp/internal/storage"
)

func testConfig(t *testing.T) config {
	return config{seed: 3, seconds: 0.4, out: t.TempDir(), root: "..", setups: 1}
}

// corrupt returns ops that folds its answers after changing one
// generated value of series, as a wrong expectation would.
func corrupt(ops func(*inprocEnv, int64) ([]op, error), series string) func(*inprocEnv, int64) ([]op, error) {
	return func(env *inprocEnv, seed int64) ([]op, error) {
		env.raw[series].vals[0]++
		return ops(env, seed)
	}
}

// TestCorruptedExpectationFails runs each in-process workload twice at a
// small size: with the true answers every query passes; with one
// generated value changed before the answers are folded, the mismatches
// are counted as failures and the run is not correct.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, tc := range []struct {
		name   string
		w      inprocWorkload
		series string
	}{
		{"agg-scan", inprocWorkload{clients: 2, setup: setupAggScan(20_000), ops: aggScanOps}, "atm"},
		{"row-export", inprocWorkload{clients: 2, render: true, setup: setupRowExport(2_000), ops: rowExportOps}, "atm1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := newReport()
			if err := runInproc(testConfig(t), rep, tc.w); err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || !rep.Correct || rep.Metrics["success_rate"].Value != 1 {
				t.Fatalf("true answers: failed %d of %d, correct %v, success_rate %v",
					rep.Failed, rep.Attempted, rep.Correct, rep.Metrics["success_rate"].Value)
			}
			w := tc.w
			w.ops = corrupt(tc.w.ops, tc.series)
			rep = newReport()
			if err := runInproc(testConfig(t), rep, w); err != nil {
				t.Fatal(err)
			}
			if rep.Failed == 0 || rep.Correct || rep.Metrics["success_rate"].Value >= 1 {
				t.Fatalf("corrupted answers: failed %d of %d, correct %v, success_rate %v",
					rep.Failed, rep.Attempted, rep.Correct, rep.Metrics["success_rate"].Value)
			}
		})
	}
}

// TestServedChecksCatchCorruption sends the served-ingest catalogue to the
// serve package's handler and checks every rendered response: all pass
// against the true answers, and the queries over a changed value fail.
func TestServedChecksCatchCorruption(t *testing.T) {
	const rows = servedRows
	d, err := dataset.Generate("Clim", rows, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore()
	raw := map[string]columns{}
	for a := 0; a < servedSeries; a++ {
		name := fmt.Sprintf("ts%d", a+1)
		vals := append([]int64(nil), d.Attrs[a]...)
		if err := st.Append(name, d.Time, vals, storage.Options{}); err != nil {
			t.Fatal(err)
		}
		raw[name] = columns{ts: d.Time, vals: vals}
	}
	eng := engine.New(st, engine.ModeETSQP)
	eng.Cache = exec.NewPageCache(servedCacheMB << 20)
	srv := httptest.NewServer((&serve.Server{Engine: eng, Store: st, MaxRows: servedRowCap, SlowThreshold: -1}).Handler())
	defer srv.Close()
	cl := newClient(srv.URL)
	defer cl.close()

	failures := func(ops []httpOp) int {
		n := 0
		for i := range ops {
			body, err := cl.query(ops[i].sql)
			if err != nil {
				t.Fatalf("%s: %v", ops[i].name, err)
			}
			if _, err := ops[i].check(body); err != nil {
				n++
			}
		}
		return n
	}
	if n := failures(servedOps(raw, 5)); n != 0 {
		t.Fatalf("true answers: %d failures", n)
	}
	c := raw["ts1"]
	c.vals[rows-1]++         // in every recent window of the series
	c.vals[rows-servedRaw]++ // first rendered row of its newest raw fetch
	if n := failures(servedOps(raw, 5)); n == 0 {
		t.Fatal("corrupted answers: no failures")
	}
}
