// Command perfbench is the repository's benchmark. It generates every
// input from a seed, drives one workload against the engine, checks each
// answer, and prints the metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. Run it through run.sh,
// which builds this program and etsqp-cli from the checkout first; see
// README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	_ "etsqp/internal/encoding/ts2diff"
)

// gcPercent is the GOGC the benchmark runs the engine under, in process
// and in the served process. At Go's default of 100 the engine's
// per-query garbage keeps the heap small, so the runtime collects many
// times a second and returns freed pages to the OS only to fault them
// back in. On a shared virtual machine those faults show up as stolen
// CPU time, and they made run-to-run spread exceed the metrics' bounds.
// Allocation still shows in alloc_bytes_per_query and the runtime.*
// metrics.
const gcPercent = 1600

// holdoutSeed is never used while the benchmark or a change is tuned; a
// claim measured on the usual seeds is re-checked on it.
const holdoutSeed = 90210

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	root      string // checkout root
	out       string // build and record directory
	cli       string // etsqp-cli binary (served-ingest)
	setups    int    // set-ups per run, 0 = by timeSetups' rule; setup_s is their median
	servedQPS float64
	ingestPPS float64
}

// duration is the measured window of one run.
func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller scores.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's result and the record written beside it.
type report struct {
	result
	Record map[string]any
}

func newReport() *report {
	return &report{
		result: result{Correct: true, Metrics: map[string]metric{}},
		Record: map[string]any{},
	}
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps -workload names to their runners.
var workloads = map[string]func(config, *report) error{
	"agg-scan":      runAggScan,
	"row-export":    runRowExport,
	"served-ingest": runServedIngest,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: agg-scan, row-export or served-ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for run records and scratch files")
	flag.StringVar(&cfg.cli, "cli", "", "etsqp-cli binary built from the checkout")
	flag.Float64Var(&cfg.servedQPS, "served-qps", 50, "served-ingest query rate (open loop)")
	flag.Float64Var(&cfg.ingestPPS, "ingest-pps", 20000, "served-ingest transport ingest rate, points/s")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || cfg.servedQPS <= 0 || cfg.ingestPPS <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v)\n", cfg.workload, cfg.seconds)
		os.Exit(2)
	}
	debug.SetGCPercent(gcPercent)
	stopServersOnSignal()
	rep := newReport()
	started := time.Now()
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if rep.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no queries\n", cfg.workload)
		os.Exit(1)
	}
	rep.Record["run_wall_s"] = time.Since(started).Seconds()
	if err := writeRecord(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: record: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// writeRecord stores the run record: host fingerprint, source hash,
// seeds, workload parameters, sample counts and every metric.
func writeRecord(cfg config, rep *report) error {
	rec := rep.Record
	rec["workload"] = cfg.workload
	rec["seed"] = cfg.seed
	rec["holdout_seed"] = holdoutSeed
	rec["seconds"] = cfg.seconds
	rec["trace"] = cfg.trace
	rec["host"] = map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "num_cpu": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(), "gogc": gcPercent,
	}
	sum, err := sourceHash(cfg.root)
	if err != nil {
		return err
	}
	rec["source_sha256"] = sum
	rec["correct"], rec["attempted"], rec["failed"] = rep.Correct, rep.Attempted, rep.Failed
	rec["metrics"] = rep.Metrics
	dir := filepath.Join(cfg.out, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace), time.Now().UnixNano())
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	fmt.Fprintf(os.Stderr, "perfbench: record %s\n", path)
	return os.WriteFile(path, data, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
