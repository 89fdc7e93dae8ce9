package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"etsqp/internal/dataset"
	"etsqp/internal/engine"
	etsqpexec "etsqp/internal/exec"
	"etsqp/internal/storage"
	"etsqp/internal/transport"
)

// served-ingest sizes: four series of the Climate dataset; the decoded
// working set of the queries fits the server's default 64 MiB cache.
const (
	servedRows      = 500_000
	servedSeries    = 4
	servedCacheMB   = 64
	servedRecent    = 100_000 // rows in a recent-window query
	servedRange     = 400_000 // rows in a time-range SUM
	servedRaw       = 40_000  // rows in a raw fetch of recent rows
	servedRowCap    = 20      // rows serve renders of a raw fetch (its -maxrows default)
	servedVariants  = 4       // queries of each kind per series
	ingestSeries    = "ts1"
	maxGeneratorLag = 50 * time.Millisecond  // p99 of the query generator's own lateness
	maxIngestLag    = 500 * time.Millisecond // points unsent when the window closes
)

// servedEnv is one set-up of the served workload: the generated store,
// the file it was written to, and the running server.
type servedEnv struct {
	store *storage.Store
	raw   map[string]columns
	file  string
	srv   *server
}

func (e *servedEnv) release() {
	if e == nil {
		return
	}
	e.srv.stop()
	os.Remove(e.file)
}

// server is a running etsqp-cli serve process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	ingest string // host:port
	logAll bool   // started with -slow 0: one trace line per query
	mu     sync.Mutex
	traces []*engine.Trace // slow-log lines, in order
	done   chan struct{}   // closed when the log reader has finished
}

// liveServers are the servers started and not yet stopped, so a signal
// can stop them before the benchmark exits.
var liveServers struct {
	sync.Mutex
	set map[*server]bool
}

// stopServersOnSignal stops every live server when the benchmark is
// interrupted or terminated, then exits.
func stopServersOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		liveServers.Lock()
		for s := range liveServers.set {
			s.cmd.Process.Kill()
			s.cmd.Wait()
		}
		liveServers.Unlock()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", sig)
		os.Exit(1)
	}()
}

// freePort reserves a loopback port and releases it for the server.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer runs etsqp-cli serve over the store file and waits until
// /healthz answers. slow is the slow-query threshold; "0" logs every
// query's trace.
func startServer(cfg config, file, slow string) (*server, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	ingestAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.cli, "serve", "-load", file, "-http", httpAddr, "-ingest", ingestAddr,
		"-slow", slow, "-slow-max", "-1", "-cache-mb", strconv.Itoa(servedCacheMB))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOGC=%d", gcPercent))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + httpAddr, ingest: ingestAddr, logAll: slow == "0", done: make(chan struct{})}
	liveServers.Lock()
	if liveServers.set == nil {
		liveServers.set = map[*server]bool{}
	}
	liveServers.set[s] = true
	liveServers.Unlock()
	go s.readLog(stderr)
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server did not become healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readLog keeps the slow-query trace lines of the server's standard
// error; other lines are echoed to ours.
func (s *server) readLog(r io.Reader) {
	defer close(s.done)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		tr := new(engine.Trace)
		if len(line) > 0 && line[0] == '{' && json.Unmarshal(line, tr) == nil {
			s.mu.Lock()
			s.traces = append(s.traces, tr)
			s.mu.Unlock()
			continue
		}
		fmt.Fprintf(os.Stderr, "server: %s\n", line)
	}
}

// waitTraces waits until the server has logged n trace lines.
func waitTraces(s *server, n int) {
	deadline := time.Now().Add(5 * time.Second)
	for s.traceCount() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *server) traceCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.traces)
}

// stop kills the server and waits for it and its log reader to end.
func (s *server) stop() {
	if s == nil {
		return
	}
	liveServers.Lock()
	delete(liveServers.set, s)
	liveServers.Unlock()
	s.cmd.Process.Kill()
	<-s.done
	s.cmd.Wait()
}

// setupServed generates the store, writes it where the server loads it
// from, and starts the server: everything up to the first timed query.
func setupServed(cfg config, slow string) (*servedEnv, error) {
	d, err := dataset.Generate("Clim", servedRows, datasetSeed(cfg.seed, 0))
	if err != nil {
		return nil, err
	}
	env := &servedEnv{store: storage.NewStore(), raw: map[string]columns{}}
	for a := 0; a < servedSeries; a++ {
		name := fmt.Sprintf("ts%d", a+1)
		if err := env.store.Append(name, d.Time, d.Attrs[a], storage.Options{}); err != nil {
			return nil, err
		}
		env.raw[name] = columns{ts: d.Time, vals: d.Attrs[a]}
	}
	dir := filepath.Join(cfg.out, "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	env.file = filepath.Join(dir, fmt.Sprintf("served-%d.etsqp", os.Getpid()))
	if err := env.store.WriteFile(env.file); err != nil {
		return nil, err
	}
	env.srv, err = startServer(cfg, env.file, slow)
	if err != nil {
		os.Remove(env.file)
		return nil, err
	}
	return env, nil
}

// httpOp is one served query and the check of its rendered response.
type httpOp struct {
	name  string
	sql   string
	check func(body string) (tuples int64, err error)
	op    op // the same query and answer for in-process replays
}

// servedOps builds, per series, recent-window SW AVG, time-range SUM and
// last-N fetches. Every time range lies inside the loaded data, so work
// per query stays the same while ingest appends.
func servedOps(raw map[string]columns, seed int64) []httpOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []httpOp
	for a := 0; a < servedSeries; a++ {
		name := fmt.Sprintf("ts%d", a+1)
		c := raw[name]
		n := len(c.ts)
		dt := (c.ts[n-1] - c.ts[0]) / int64(n-1) * 1000
		for v := 0; v < servedVariants; v++ {
			hi := n - 1 - v*5000
			lo := hi - servedRecent + 1
			ops = append(ops, windowOp(fmt.Sprintf("%s/swavg%d", name, v), name, c, lo, hi, dt))

			lo = rng.Intn(n - servedRange)
			ops = append(ops, sumOp(fmt.Sprintf("%s/sum%d", name, v), name, c, lo, lo+servedRange-1))

			hi = n - 1 - v*1000
			ops = append(ops, rawOp(fmt.Sprintf("%s/raw%d", name, v), name, c, hi-servedRaw+1, hi))
		}
	}
	return ops
}

var (
	windowLine = regexp.MustCompile(`^  window (\d+) \[(-?\d+), (-?\d+)\): (\S+) \((\d+) points\)$`)
	aggLine    = regexp.MustCompile(`^  ([A-Z]+\(A\)) = (\S+)$`)
	rowLine    = regexp.MustCompile(`^  (-?\d+)\t\[(-?\d+)\]$`)
	statsLine  = regexp.MustCompile(`^  \((\d+) pages, (\d+) pruned, (\d+) jobs, (\d+) tuples\)$`)
)

// bodyLines splits a rendered response into its result lines and the
// tuple count of its trailing stats line.
func bodyLines(body string) ([]string, int64, error) {
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	m := statsLine.FindStringSubmatch(lines[len(lines)-1])
	if m == nil {
		return nil, 0, fmt.Errorf("no stats line in %q", truncate(body))
	}
	tuples, _ := strconv.ParseInt(m[4], 10, 64)
	return lines[:len(lines)-1], tuples, nil
}

func truncate(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// windowOp is SELECT AVG(A) over rows [lo, hi] in windows of dt.
func windowOp(opName, series string, c columns, lo, hi int, dt int64) httpOp {
	t1, t2 := c.ts[lo], c.ts[hi]
	k := int((t2-t1)/dt) + 1
	sums, counts := make([]int64, k), make([]int64, k)
	for i := lo; i <= hi; i++ {
		w := (c.ts[i] - t1) / dt
		sums[w] += c.vals[i]
		counts[w]++
	}
	sql := fmt.Sprintf("SELECT AVG(A) FROM %s WHERE TIME >= %d AND TIME <= %d GROUP BY TIME(%d)", series, t1, t2, dt)
	return httpOp{
		name: opName, sql: sql,
		op: op{name: opName, sql: sql, check: checkWindows(t1, dt, sums, counts, true)},
		check: func(body string) (int64, error) {
			lines, tuples, err := bodyLines(body)
			if err != nil {
				return 0, err
			}
			if len(lines) != k {
				return 0, fmt.Errorf("%d window lines, want %d", len(lines), k)
			}
			for i, line := range lines {
				m := windowLine.FindStringSubmatch(line)
				if m == nil {
					return 0, fmt.Errorf("bad window line %q", line)
				}
				start := t1 + int64(i)*dt
				avg, _ := strconv.ParseFloat(m[4], 64)
				want := float64(sums[i]) / float64(counts[i])
				if m[2] != strconv.FormatInt(start, 10) || m[5] != strconv.FormatInt(counts[i], 10) ||
					math.Abs(avg-want) > 1e-9*math.Max(1, math.Abs(want)) {
					return 0, fmt.Errorf("window line %q, want start %d avg %v count %d", line, start, want, counts[i])
				}
			}
			return tuples, nil
		},
	}
}

// sumOp is SELECT SUM(A), COUNT(A) over rows [lo, hi].
func sumOp(opName, series string, c columns, lo, hi int) httpOp {
	var sum int64
	for _, v := range c.vals[lo : hi+1] {
		sum += v
	}
	count := int64(hi - lo + 1)
	sql := fmt.Sprintf("SELECT SUM(A), COUNT(A) FROM %s WHERE TIME >= %d AND TIME <= %d", series, c.ts[lo], c.ts[hi])
	want := map[string]float64{"SUM(A)": float64(sum), "COUNT(A)": float64(count)}
	return httpOp{
		name: opName, sql: sql,
		op: op{name: opName, sql: sql, check: func(res *engine.Result) error {
			for label, w := range want {
				if err := checkAggregate(label, w)(res); err != nil {
					return err
				}
			}
			return nil
		}},
		check: func(body string) (int64, error) {
			lines, tuples, err := bodyLines(body)
			if err != nil {
				return 0, err
			}
			if len(lines) != len(want) {
				return 0, fmt.Errorf("%d aggregate lines, want %d", len(lines), len(want))
			}
			for _, line := range lines {
				m := aggLine.FindStringSubmatch(line)
				if m == nil {
					return 0, fmt.Errorf("bad aggregate line %q", line)
				}
				got, _ := strconv.ParseFloat(m[2], 64)
				if w, ok := want[m[1]]; !ok || got != w {
					return 0, fmt.Errorf("%s = %v, want %v", m[1], got, w)
				}
			}
			return tuples, nil
		},
	}
}

// rawOp is SELECT * over rows [lo, hi]; serve renders the first
// servedRowCap rows and counts the rest.
func rawOp(opName, series string, c columns, lo, hi int) httpOp {
	sql := fmt.Sprintf("SELECT * FROM %s WHERE TIME >= %d AND TIME <= %d", series, c.ts[lo], c.ts[hi])
	rows := newRowSum()
	for i := lo; i <= hi; i++ {
		rows.add(c.ts[i], c.vals[i])
	}
	more := fmt.Sprintf("  ... %d more rows", hi-lo+1-servedRowCap)
	return httpOp{
		name: opName, sql: sql,
		op: op{name: opName, sql: sql, check: rows.check},
		check: func(body string) (int64, error) {
			lines, tuples, err := bodyLines(body)
			if err != nil {
				return 0, err
			}
			if len(lines) != servedRowCap+1 || lines[servedRowCap] != more {
				return 0, fmt.Errorf("%d lines ending %q, want %d rows and %q", len(lines), lines[len(lines)-1], servedRowCap, more)
			}
			for i, line := range lines[:servedRowCap] {
				m := rowLine.FindStringSubmatch(line)
				if m == nil || m[1] != strconv.FormatInt(c.ts[lo+i], 10) || m[2] != strconv.FormatInt(c.vals[lo+i], 10) {
					return 0, fmt.Errorf("row line %q, want %d [%d]", line, c.ts[lo+i], c.vals[lo+i])
				}
			}
			return tuples, nil
		},
	}
}

// client is the one keep-alive connection queries are sent on.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches a path and returns the body of a 200 response.
func (c *client) get(path string) (string, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, truncate(string(body)))
	}
	return string(body), nil
}

func (c *client) query(sql string) (string, error) {
	return c.get("/query?q=" + url.QueryEscape(sql))
}

// memStats reads the server's runtime.MemStats totals from its heap
// profile's text form.
func (c *client) memStats() (map[string]float64, error) {
	body, err := c.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = "); ok && line != strings.TrimPrefix(line, "# ") {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = f
			}
		}
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, fmt.Errorf("no MemStats in heap profile")
	}
	return out, nil
}

// vars reads the server's /debug/vars counters and gauges, and each
// histogram's count and sum as name.count and name.sum.
func (c *client) vars() (map[string]float64, error) {
	body, err := c.get("/debug/vars")
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		var f float64
		var h struct{ Count, Sum float64 }
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		} else if json.Unmarshal(v, &h) == nil {
			out[k+".count"], out[k+".sum"] = h.Count, h.Sum
		}
	}
	return out, nil
}

// sent is one open-loop query.
type sent struct {
	due, send, done time.Time
	tuples          int64
	op              int // catalogue index
	err             error
}

// openLoopResult is one open-loop phase.
type openLoopResult struct {
	queries  []sent
	start    time.Time
	wall     time.Duration
	genLate  []time.Duration // send time past max(due, previous completion)
	ingest   ingestResult
	peakHeap float64 // MiB, from the server's go.heap_inuse_bytes
}

// ingestResult is the transport side of a phase.
type ingestResult struct {
	sent, flushes int
	flushTime     time.Duration
	backlog       int // points still unsent when the phase ended
	err           error
}

// openLoop sends queries at qps on one connection and ingests points at
// pps on another for dur. Latency counts from each query's due time.
func openLoop(cfg config, env *servedEnv, cl *client, ops []httpOp, dur time.Duration, seed int64, next *ingestPoints) openLoopResult {
	var res openLoopResult
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		res.ingest = runIngest(env.srv.ingest, cfg.ingestPPS, next, stop)
	}()
	go func() {
		defer wg.Done()
		res.peakHeap = monitorHeap(env.srv.base, stop)
	}()
	order := mixOrder(seed, len(ops))
	interval := time.Duration(float64(time.Second) / cfg.servedQPS)
	start := time.Now().Add(10 * time.Millisecond)
	prevDone := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &ops[order[i%len(ops)]]
		s := sent{due: due, send: time.Now(), op: order[i%len(ops)]}
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		res.genLate = append(res.genLate, s.send.Sub(ready))
		body, err := cl.query(o.sql)
		s.done = time.Now()
		prevDone = s.done
		if err == nil {
			s.tuples, err = o.check(body)
		}
		if err != nil {
			s.err = fmt.Errorf("%s: %w", o.name, err)
		}
		res.queries = append(res.queries, s)
	}
	res.start, res.wall = start, time.Since(start)
	close(stop)
	wg.Wait()
	return res
}

// ingestPoints continues ts1 past the loaded data: hourly timestamps and
// a seeded random walk.
type ingestPoints struct {
	t, v int64
	rng  *rand.Rand
}

func (p *ingestPoints) next() (int64, int64) {
	p.t += 3_600_000
	p.v += p.rng.Int63n(11) - 5
	return p.t, p.v
}

// runIngest ships points at pps over one transport connection until
// stop, then flushes the remainder and closes the stream.
func runIngest(addr string, pps float64, pts *ingestPoints, stop <-chan struct{}) ingestResult {
	var r ingestResult
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		r.err = err
		return r
	}
	defer conn.Close()
	snd := transport.NewSender(conn, storage.DefaultPageSize, storage.Options{})
	start := time.Now()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			r.backlog = int(time.Since(start).Seconds()*pps) - r.sent
			r.err = snd.Close()
			return r
		case <-tick.C:
		}
		due := int(time.Since(start).Seconds() * pps)
		for r.sent < due {
			t, v := pts.next()
			begin := time.Now()
			if err := snd.Record(ingestSeries, t, v); err != nil {
				r.err = err
				return r
			}
			r.sent++
			if r.sent%snd.Flush == 0 {
				r.flushTime += time.Since(begin)
				r.flushes++
			}
		}
	}
}

// monitorHeap polls the server's heap gauge every 250 ms until stop and
// returns the median of its per-second peaks in MiB.
func monitorHeap(base string, stop <-chan struct{}) float64 {
	cl := newClient(base)
	defer cl.close()
	h := &heapSampler{start: time.Now()}
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		if v, err := cl.vars(); err == nil {
			h.note(v["go.heap_inuse_bytes"])
		}
		select {
		case <-stop:
			return median(h.peaks) / (1 << 20)
		case <-tick.C:
		}
	}
}

// settleIngest waits until COUNT(A) of the ingested series reaches the
// loaded plus sent points and returns the points that landed.
func settleIngest(cl *client, loaded, sentPts int) (int, error) {
	sql := "SELECT COUNT(A) FROM " + ingestSeries
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, err := cl.query(sql)
		if err != nil {
			return 0, err
		}
		lines, _, err := bodyLines(body)
		if err != nil || len(lines) != 1 {
			return 0, fmt.Errorf("COUNT response %q", truncate(body))
		}
		m := aggLine.FindStringSubmatch(lines[0])
		if m == nil {
			return 0, fmt.Errorf("COUNT line %q", lines[0])
		}
		count, _ := strconv.ParseFloat(m[2], 64)
		landed := int(count) - loaded
		if landed == sentPts || time.Now().After(deadline) {
			return landed, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// servedPhase is one measured window against a running server.
type servedPhase struct {
	loop           openLoopResult
	lat            []time.Duration // from due time, successful queries
	memDelta       map[string]float64
	varsDelta      map[string]float64
	landed         int
	tracesFrom, to int       // the server's trace lines logged in the window
	outs           []outcome // latency from due time, end since the loop start
}

// runServedPhase warms the server, then runs one open-loop window and
// checks the ingest landed.
func runServedPhase(cfg config, rep *report, env *servedEnv, ops []httpOp, dur time.Duration, seed int64) (*servedPhase, error) {
	cl := newClient(env.srv.base)
	defer cl.close()
	for i := range ops { // warm-up: fill the cache, check every answer once
		body, err := cl.query(ops[i].sql)
		if err == nil {
			_, err = ops[i].check(body)
		}
		rep.Attempted++
		if err != nil {
			rep.Failed++
			noteFailure(rep, fmt.Errorf("%s: %w", ops[i].name, err))
		}
	}
	if env.srv.logAll {
		// The window's trace lines start after the warm-up's.
		waitTraces(env.srv, len(ops))
	}
	ser, _ := env.store.Series(ingestSeries)
	loaded := ser.NumPoints()
	c := env.raw[ingestSeries]
	pts := &ingestPoints{t: c.ts[len(c.ts)-1], v: c.vals[len(c.vals)-1], rng: rand.New(rand.NewSource(seed + 17))}
	memBefore, err := cl.memStats()
	if err != nil {
		return nil, err
	}
	varsBefore, err := cl.vars()
	if err != nil {
		return nil, err
	}
	ph := &servedPhase{tracesFrom: env.srv.traceCount()}
	ph.loop = openLoop(cfg, env, cl, ops, dur, seed, pts)
	for _, q := range ph.loop.queries {
		ph.outs = append(ph.outs, outcome{lat: q.done.Sub(q.due), tuples: q.tuples, err: q.err, end: q.done.Sub(ph.loop.start), op: q.op})
		rep.Attempted++
		if q.err != nil {
			rep.Failed++
			noteFailure(rep, q.err)
			continue
		}
		ph.lat = append(ph.lat, q.done.Sub(q.due))
	}
	ph.to = ph.tracesFrom + len(ph.loop.queries)
	memAfter, err := cl.memStats()
	if err != nil {
		return nil, err
	}
	varsAfter, err := cl.vars()
	if err != nil {
		return nil, err
	}
	ph.memDelta, ph.varsDelta = deltas(memAfter, memBefore), deltas(varsAfter, varsBefore)
	if ph.loop.ingest.err != nil {
		return nil, fmt.Errorf("ingest: %w", ph.loop.ingest.err)
	}
	ph.landed, err = settleIngest(cl, loaded, ph.loop.ingest.sent)
	if err != nil {
		return nil, err
	}
	rep.Attempted++
	if ph.landed != ph.loop.ingest.sent {
		rep.Failed++
		noteFailure(rep, fmt.Errorf("COUNT(A) on %s: %d points landed, %d sent", ingestSeries, ph.landed, ph.loop.ingest.sent))
	}
	if late := generatorLate(ph.loop.genLate); late > float64(maxGeneratorLag)/1e6 || ph.loop.ingest.backlog > int(cfg.ingestPPS*maxIngestLag.Seconds()) {
		// The load generator itself fell behind its schedule: the run
		// measured the benchmark, not the server, so it is not scored.
		rep.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: invalid run: generator p99 lateness %.2f ms, ingest backlog %d points\n",
			late, ph.loop.ingest.backlog)
	}
	return ph, nil
}

func deltas(after, before map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// generatorLate is the p99 of the query generator's own lateness, ms.
func generatorLate(late []time.Duration) float64 {
	ms := make([]float64, len(late))
	for i, d := range late {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return quantile(ms, 0.99)
}

func runServedIngest(cfg config, rep *report) error {
	if cfg.cli == "" {
		return fmt.Errorf("need -cli, the etsqp-cli binary")
	}
	rep.Record["params"] = map[string]any{
		"binary": "etsqp-cli serve", "mode": "etsqp", "cache_mb": servedCacheMB, "loop": "open",
		"query_rate_qps": cfg.servedQPS, "ingest_rate_pps": cfg.ingestPPS, "dataset": "Clim",
		"series": servedSeries, "rows_per_series": servedRows, "ingest_series": ingestSeries,
		"recent_rows": servedRecent, "range_rows": servedRange, "raw_rows": servedRaw, "row_cap": servedRowCap,
	}
	setups := cfg.setups
	slow := "100ms" // the server's default threshold
	if cfg.trace {
		setups = 1
	}
	env, setupS, setupTimes, err := timeSetups(setups,
		func() (*servedEnv, error) { return setupServed(cfg, slow) },
		func(e *servedEnv) { e.release() })
	if err != nil {
		return err
	}
	defer func() { env.release() }()
	rep.Record["setup_s_samples"] = setupTimes
	ops := servedOps(env.raw, cfg.seed)
	rep.Record["catalogue"] = len(ops)
	if cfg.trace {
		return tracedServed(cfg, rep, env, ops)
	}
	ph, err := runServedPhase(cfg, rep, env, ops, cfg.duration(), cfg.seed)
	if err != nil {
		return err
	}
	rep.Record["generator_p99_late_ms"] = generatorLate(ph.loop.genLate)
	var fromSend []time.Duration
	for _, q := range ph.loop.queries {
		fromSend = append(fromSend, q.done.Sub(q.send))
	}
	rep.Record["latency_from_send"] = summarize(fromSend)
	rep.Record["ingest"] = map[string]any{"sent": ph.loop.ingest.sent, "landed": ph.landed, "backlog": ph.loop.ingest.backlog}
	names := make([]string, len(ops))
	for i := range ops {
		names[i] = ops[i].name
	}
	reportEndToEnd(rep, ph.outs, ph.loop.wall, setupS, names)
	rep.set("alloc_bytes_per_query", "B", ph.memDelta["TotalAlloc"]/float64(len(ph.loop.queries)))
	rep.set("peak_heap_mb", "MiB", ph.loop.peakHeap)
	rep.set("stored_bytes_per_point", "B", storedBytesPerPoint(env.store))
	if rep.Failed > 0 {
		rep.Correct = false
	}
	return nil
}

// tracedServed is the served workload's per-layer run: half the window
// against a server with its default slow-query threshold, half against
// one that logs every query's trace, then in-process replays and layer
// probes over the same store.
func tracedServed(cfg config, rep *report, env *servedEnv, ops []httpOp) error {
	half := cfg.duration() / 2
	ph, err := runServedPhase(cfg, rep, env, ops, half, cfg.seed)
	if err != nil {
		return err
	}
	untraced := summarize(ph.lat)
	rep.set("latency_p99_ms", "ms", untraced.P99ms)
	n := float64(len(ph.loop.queries))
	rep.set("runtime.mallocs_per_query", "count", ph.memDelta["Mallocs"]/n)
	rep.set("runtime.gc_cycles_per_query", "count", ph.memDelta["NumGC"]/n)
	rep.set("runtime.gc_pause_ms_per_s", "ms/s", ph.varsDelta["go.hist.gc_pause_ns.sum"]/1e6/ph.loop.wall.Seconds())
	rep.set("generator.late_ms", "ms", generatorLate(ph.loop.genLate))
	env.srv.stop()

	// The traced half: a fresh server over the same file, logging every
	// query's span tree.
	env.srv, err = startServer(cfg, env.file, "0")
	if err != nil {
		return err
	}
	tph, err := runServedPhase(cfg, rep, env, ops, half, cfg.seed+1)
	if err != nil {
		return err
	}
	traced := summarize(tph.lat)
	rep.Record["latency_untraced"] = untraced
	rep.Record["latency_traced"] = traced
	rep.set("trace.overhead_frac", "ratio", traced.P50ms/untraced.P50ms-1)
	if err := servedSpans(cfg, rep, env, tph); err != nil {
		return err
	}
	ing := tph.loop.ingest
	rep.set("transport.flush_us", "us", float64(ing.flushTime)/1e3/math.Max(1, float64(ing.flushes)))
	rep.set("transport.points_landed_frac", "ratio", float64(tph.landed)/float64(ing.sent))

	// In-process replays and probes over the same store, wired as the
	// server wires it.
	pool := etsqpexec.NewPool(0)
	defer pool.Close()
	cache := etsqpexec.NewPageCache(servedCacheMB << 20)
	eng := engine.New(env.store, engine.ModeETSQP)
	eng.Pool, eng.Cache = pool, cache
	ienv := &inprocEnv{store: env.store, eng: eng, raw: env.raw, series: []string{"ts1", "ts2", "ts3", "ts4"}}
	iops := make([]op, len(ops))
	for i := range ops {
		iops[i] = ops[i].op
	}
	acc := newStatsAcc()
	for pass := 0; pass < 3; pass++ {
		for i := range iops {
			res, err := eng.ExecuteSQL(iops[i].sql)
			if err != nil {
				return fmt.Errorf("%s: %w", iops[i].name, err)
			}
			rep.Attempted++
			if err := iops[i].check(res); err != nil {
				rep.Failed++
				noteFailure(rep, fmt.Errorf("%s in process: %w", iops[i].name, err))
			}
			acc.add(res.Stats)
		}
	}
	acc.report(rep, nil, time.Second)
	// The cache figures come from the server, which has the ingest.
	v := tph.varsDelta
	qn := float64(len(tph.loop.queries))
	rep.set("exec.cache_hit_ratio", "ratio", v["exec.cache.hits"]/math.Max(1, v["exec.cache.hits"]+v["exec.cache.misses"]))
	rep.set("exec.cache_evictions_per_query", "count", v["exec.cache.evictions"]/qn)
	rep.set("exec.cache_invalidated_per_s", "1/s", v["exec.cache.invalidated"]/tph.loop.wall.Seconds())
	for _, p := range []func() error{
		func() error { return probeKernels(rep, env.store) },
		func() error { return probeEncode(rep, ienv) },
		func() error { return probeRender(rep, eng, iops, 20) },
		func() error { return probeSerial(rep, ienv, iops) },
	} {
		if err := p(); err != nil {
			return err
		}
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	return nil
}

// servedSpans builds the traced half's spans — an http root per query
// with the server's parse and execute spans and its engine stage spans
// beneath — and reports the serve and engine timings from them.
func servedSpans(cfg config, rep *report, env *servedEnv, ph *servedPhase) error {
	// Every response was written after its trace line; wait for the
	// reader to catch up.
	waitTraces(env.srv, ph.to)
	env.srv.mu.Lock()
	traces := append([]*engine.Trace(nil), env.srv.traces[ph.tracesFrom:min(ph.to, len(env.srv.traces))]...)
	env.srv.mu.Unlock()
	if len(traces) != len(ph.loop.queries) {
		return fmt.Errorf("server logged %d traces for %d queries", len(traces), len(ph.loop.queries))
	}
	tr := newTracer()
	var engineNs, cpuNs, parseNs int64
	var httpNs time.Duration
	for i, q := range ph.loop.queries {
		t := traces[i]
		root := tr.add(0, "http", q.send, q.done.Sub(q.send))
		var parse, plan int64
		var stages []engine.Span
		for _, s := range t.Root.Children {
			switch s.Name {
			case "parse":
				parse = s.DurNs
			case "plan":
				plan = s.DurNs
			default:
				stages = append(stages, s)
			}
		}
		tr.add(root, "parse", q.send, time.Duration(parse))
		tr.add(root, "plan", q.send.Add(time.Duration(parse)), time.Duration(plan))
		x := tr.add(root, "execute", q.send.Add(time.Duration(parse+plan)), time.Duration(t.ElapsedNs))
		tr.attach(x, stages)
		engineNs += t.ElapsedNs
		parseNs += parse
		if t.Resources != nil {
			cpuNs += t.Resources.CPUNanos
		}
		httpNs += q.done.Sub(q.send)
	}
	n := float64(len(traces))
	rep.set("serve.engine_ms", "ms", float64(engineNs)/1e6/n)
	rep.set("serve.overhead_ms", "ms", (float64(httpNs)-float64(engineNs))/1e6/n)
	rep.set("engine.execute_ms", "ms", float64(engineNs)/1e6/n)
	rep.set("engine.cpu_per_wall", "ratio", float64(cpuNs)/float64(engineNs))
	rep.set("sqlparse.parse_us", "us", float64(parseNs)/1e3/n)
	tr.reportSelf(rep)
	return tr.write(cfg, rep)
}
