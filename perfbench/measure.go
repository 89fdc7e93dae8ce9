package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// sourceHash identifies the code under test: a SHA-256 over the paths and
// contents of the checkout's Go sources and go.mod files. The checkout
// the benchmark runs in need not be a git repository, so this stands in
// for the commit.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary is the median and p99 of a latency sample with the
// sample count behind them. A p99 is only meaningful with at least ten
// samples beyond it, that is 1000 samples.
type latencySummary struct {
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
	Samples   int     `json:"samples"`
	BeyondP99 int     `json:"samples_beyond_p99"`
}

func summarize(lat []time.Duration) latencySummary {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	s := latencySummary{P50ms: quantile(ms, 0.50), P99ms: quantile(ms, 0.99), Samples: len(ms)}
	for _, v := range ms {
		if v > s.P99ms {
			s.BeyondP99++
		}
	}
	return s
}

// runtimeCounters is a snapshot of this process's allocation and GC
// totals.
type runtimeCounters struct {
	allocBytes, mallocs, gcCycles uint64
	pauseNs                       uint64
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		pauseNs:    ms.PauseTotalNs,
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: a.allocBytes - b.allocBytes, mallocs: a.mallocs - b.mallocs,
		gcCycles: a.gcCycles - b.gcCycles, pauseNs: a.pauseNs - b.pauseNs,
	}
}

// heapSampler tracks the live heap — the bytes the last GC cycle
// marked reachable — while it runs. Unlike the heap's size between
// cycles, this does not depend on when collections happen to run.
type heapSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	start time.Time
	peaks []float64 // per sample window, bytes
}

// startHeapSampler samples the live heap every 10 ms until finish.
func startHeapSampler(sample func() float64) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), start: time.Now()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.note(sample())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// note records one sample in the peak of its one-second window.
func (h *heapSampler) note(v float64) {
	w := int(time.Since(h.start) / time.Second)
	for len(h.peaks) <= w {
		h.peaks = append(h.peaks, 0)
	}
	h.peaks[w] = max(h.peaks[w], v)
}

// finish stops the sampler and returns, in MiB, the median over the
// run's one-second windows of each window's peak, so one transient
// spike does not set the figure.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return median(h.peaks) / (1 << 20)
}

// liveHeap reads this process's live heap bytes.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// Set-up repetitions: at least minSetups, and more while their total is
// under setupBudget, up to maxSetups, so a quick set-up still gives a
// steady median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// timeSetups runs setup n times — or, with n == 0, by the repetition
// rule above — and returns the last environment with the median set-up
// time; earlier environments are released first.
func timeSetups[E any](n int, setup func() (E, error), release func(E)) (E, float64, []float64, error) {
	var env E
	var times []float64
	total := 0.0
	for i := 0; ; i++ {
		if n > 0 && i == n || n == 0 && i >= minSetups && (total >= setupBudget.Seconds() || i == maxSetups) {
			break
		}
		if i > 0 {
			release(env)
			runtime.GC()
		}
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		total += times[len(times)-1]
		env = e
	}
	return env, median(times), times, nil
}

// outcome is one query of a load loop.
type outcome struct {
	lat    time.Duration
	tuples int64
	err    error         // execution failure or wrong answer
	end    time.Duration // completion, since the loop started
	op     int           // catalogue index
}

// mixOrder is the seeded order in which a loop cycles through the n
// catalogue queries, so every query runs equally often (to within one)
// and the mix itself adds no run-to-run variance.
func mixOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// closedLoop runs clients goroutines, each issuing its next query as
// soon as the previous one returns, until dur has passed. The clients
// cycle through the catalogue in mixOrder, starting at evenly spaced
// positions. The wall time runs until the last in-flight query completes.
func closedLoop(clients int, dur time.Duration, seed int64, n int, one func(client, op int) outcome) ([]outcome, time.Duration) {
	per := make([][]outcome, clients)
	order := mixOrder(seed, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * n / clients; time.Now().Before(deadline); i++ {
				o := one(c, order[i%n])
				o.end, o.op = time.Since(start), order[i%n]
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// loopTotals folds closed-loop outcomes into the report's counters and
// returns the latencies of the queries that succeeded.
func loopTotals(rep *report, outs []outcome) (lat []time.Duration) {
	for _, o := range outs {
		rep.Attempted++
		if o.err != nil {
			rep.Failed++
			noteFailure(rep, o.err)
			continue
		}
		lat = append(lat, o.lat)
	}
	return lat
}

// runWindows is the number of equal, consecutive sub-windows a run's
// median latency and rates are taken over. The run reports the median
// window, so a stall of the host (CPU steal on a shared machine) moves
// one window, not the result.
const runWindows = 3

// window is one sub-window's figures over its successful queries.
type window struct {
	latencySummary
	QPS        float64 `json:"qps"`
	TuplesPerS float64 `json:"tuples_per_s"`
}

// windowed splits successful outcomes by completion time into
// runWindows windows and returns the median over the windows of the
// p50, the query rate and the tuple rate, with the windows themselves
// for the run record.
func windowed(outs []outcome, wall time.Duration) (med window, per []window) {
	lat := make([][]time.Duration, runWindows)
	per = make([]window, runWindows)
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		w := min(int(int64(o.end)*runWindows/int64(wall)), runWindows-1)
		lat[w] = append(lat[w], o.lat)
		per[w].TuplesPerS += float64(o.tuples)
	}
	sec := wall.Seconds() / runWindows
	var p50, qps, tps []float64
	for w := range per {
		per[w].latencySummary = summarize(lat[w])
		per[w].QPS = float64(len(lat[w])) / sec
		per[w].TuplesPerS /= sec
		p50 = append(p50, per[w].P50ms)
		qps, tps = append(qps, per[w].QPS), append(tps, per[w].TuplesPerS)
	}
	return window{latencySummary: latencySummary{P50ms: median(p50)}, QPS: median(qps), TuplesPerS: median(tps)}, per
}

// noteFailure logs the first few failures to standard error.
func noteFailure(rep *report, err error) {
	if rep.Failed <= 5 {
		os.Stderr.WriteString("perfbench: failure: " + err.Error() + "\n")
	}
}

// countingWriter counts bytes and lines written through it.
type countingWriter struct{ bytes, lines int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	for _, b := range p {
		if b == '\n' {
			w.lines++
		}
	}
	return len(p), nil
}
