package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"etsqp/internal/engine"
	"etsqp/internal/obs"
)

// span is one timed interval of the traced run. Spans of one query share
// the root's ID as their trace. Summed spans carry the engine's stage
// times, which are summed over workers, not wall intervals.
type span struct {
	Trace   int64  `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Summed  bool   `json:"summed,omitempty"`
}

// tracer keeps the traced run's spans in memory until write.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span // index = ID-1
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 opens a root) and returns its ID.
func (t *tracer) begin(parent int64, name string) int64 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	trace := id
	if parent != 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, StartNs: now})
	return id
}

// end closes a span.
func (t *tracer) end(id int64) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.DurNs = now - s.StartNs
	t.mu.Unlock()
}

// add records a finished span with a known start and duration.
func (t *tracer) add(parent int64, name string, start time.Time, dur time.Duration) int64 {
	id := t.begin(parent, name)
	t.mu.Lock()
	s := &t.spans[id-1]
	s.StartNs, s.DurNs = int64(start.Sub(t.t0)), int64(dur)
	t.mu.Unlock()
	return id
}

// attach records engine stage spans under parent as summed spans.
func (t *tracer) attach(parent int64, stages []engine.Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	for _, st := range stages {
		id := int64(len(t.spans)) + 1
		t.spans = append(t.spans, span{
			Trace: p.Trace, ID: id, Parent: parent, Name: "engine." + st.Name,
			StartNs: p.StartNs, DurNs: st.DurNs, Summed: true,
		})
	}
}

// totalDur sums the durations of the named spans, in milliseconds.
func (t *tracer) totalDur(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.DurNs
		}
	}
	return float64(sum) / 1e6
}

// meanDur is the mean duration of the named spans, in milliseconds.
func (t *tracer) meanDur(name string) float64 {
	t.mu.Lock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	t.mu.Unlock()
	if n == 0 {
		return 0
	}
	return t.totalDur(name) / float64(n)
}

// selfShares returns each layer's self time as a share of the root
// spans' total time: a span's self time is its duration minus the
// interval spans beneath it.
func (t *tracer) selfShares() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	childDur := make([]int64, len(t.spans))
	var rootDur int64
	for _, s := range t.spans {
		if s.Parent == 0 {
			rootDur += s.DurNs
		} else if !s.Summed {
			childDur[s.Parent-1] += s.DurNs
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.Summed {
			continue
		}
		if self := s.DurNs - childDur[i]; self > 0 {
			out[s.Name] += float64(self)
		}
	}
	for k := range out {
		out[k] /= float64(rootDur)
	}
	return out
}

// selfLayers maps span names to the layer their self time is charged to.
// Roots are "query" in process and "http" for the served workload.
var selfLayers = []struct {
	metric string
	spans  []string
}{
	{"self.client_frac", []string{"query", "http"}},
	{"self.sqlparse_frac", []string{"parse"}},
	{"self.engine_frac", []string{"execute"}},
	{"self.cli_frac", []string{"render"}},
}

// reportSelf reports the per-layer self-time shares.
func (t *tracer) reportSelf(rep *report) {
	shares := t.selfShares()
	for _, l := range selfLayers {
		var v float64
		for _, name := range l.spans {
			v += shares[name]
		}
		rep.set(l.metric, "ratio", v)
	}
}

// write stores the spans as JSON lines under the output directory.
func (t *tracer) write(cfg config, rep *report) error {
	dir := filepath.Join(cfg.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", cfg.workload, cfg.seed, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := f.Close(); err != nil {
		return err
	}
	rep.Record["span_file"] = path
	rep.Record["spans"] = n
	fmt.Fprintf(os.Stderr, "perfbench: %d spans in %s\n", n, path)
	return nil
}

// statsAcc sums engine.Stats over the traced queries.
type statsAcc struct {
	mu sync.Mutex
	n  int64
	s  engine.Stats
}

func newStatsAcc() *statsAcc { return &statsAcc{} }

func (a *statsAcc) add(st engine.Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	s := &a.s
	s.PagesTotal += st.PagesTotal
	s.PagesPruned += st.PagesPruned
	s.TuplesLoaded += st.TuplesLoaded
	s.RowsPruned += st.RowsPruned
	s.ValuesFused += st.ValuesFused
	s.ValuesDecoded += st.ValuesDecoded
	s.CacheHits += st.CacheHits
	s.CacheMisses += st.CacheMisses
	s.IONanos += st.IONanos
	s.DecodeNanos += st.DecodeNanos
	s.FilterNanos += st.FilterNanos
	s.AggNanos += st.AggNanos
	s.WindowNanos += st.WindowNanos
	s.MergeNanos += st.MergeNanos
	s.PruneNanos += st.PruneNanos
	s.CPUNanos += st.CPUNanos
	s.MorselsRun += st.MorselsRun
	s.MorselsStolen += st.MorselsStolen
	s.ArenaHighWater += st.ArenaHighWater
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report sets the engine and exec metrics from the summed stats, the
// obs counter movement over the traced phase, and its wall time.
func (a *statsAcc) report(rep *report, obsDelta obs.Snapshot, wall time.Duration) {
	s, n := a.s, a.n
	rep.set("engine.pages_per_query", "count", ratio(s.PagesTotal, n))
	rep.set("engine.pages_pruned_frac", "ratio", ratio(s.PagesPruned, s.PagesTotal))
	rep.set("engine.rows_pruned_frac", "ratio", ratio(s.RowsPruned, s.TuplesLoaded))
	rep.set("engine.fused_frac", "ratio", ratio(s.ValuesFused, s.ValuesFused+s.ValuesDecoded))
	// Stage times are summed over workers (Figure 14(b)'s breakdown):
	// the total per query, and each stage's share of it.
	stages := []struct {
		name string
		ns   int64
	}{
		{"io", s.IONanos}, {"decode", s.DecodeNanos}, {"filter", s.FilterNanos},
		{"agg", s.AggNanos}, {"window", s.WindowNanos}, {"merge", s.MergeNanos},
		{"prune", s.PruneNanos},
	}
	var total int64
	for _, st := range stages {
		total += st.ns
	}
	rep.set("engine.stage_cpu.total_ms", "ms", float64(total)/1e6/float64(n))
	for _, st := range stages {
		rep.set("engine.stage_cpu."+st.name+"_frac", "ratio", ratio(st.ns, total))
	}
	rep.set("exec.morsels_per_query", "count", ratio(s.MorselsRun, n))
	rep.set("exec.stolen_frac", "ratio", ratio(s.MorselsStolen, s.MorselsRun))
	rep.set("exec.arena_kb", "KiB", ratio(s.ArenaHighWater, n)/1024)
	rep.set("exec.cache_hit_ratio", "ratio", ratio(s.CacheHits, s.CacheHits+s.CacheMisses))
	rep.set("exec.cache_evictions_per_query", "count", ratio(obsDelta["exec.cache.evictions"], n))
	rep.set("exec.cache_invalidated_per_s", "1/s", float64(obsDelta["exec.cache.invalidated"])/wall.Seconds())
	rep.Record["traced_queries"] = n
	rep.Record["cpu_ns_total"] = s.CPUNanos
}
