package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"etsqp/internal/cli"
	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/engine"
	"etsqp/internal/fusion"
	"etsqp/internal/pipeline"
	"etsqp/internal/serve"
	"etsqp/internal/storage"
	"etsqp/internal/transport"
)

// probeMin is the least time each kernel probe measures for.
const probeMin = 150 * time.Millisecond

// probeLayers times calls into each layer's public functions over the
// workload's own store, inputs and queries.
func probeLayers(cfg config, rep *report, env *inprocEnv, ops []op, tr *tracer) error {
	rep.set("sqlparse.parse_us", "us", tr.meanDur("parse")*1e3)
	exe := tr.meanDur("execute")
	rep.set("engine.execute_ms", "ms", exe)
	rep.set("engine.cpu_per_wall", "ratio", float64(rep.Record["cpu_ns_total"].(int64))/1e6/tr.totalDur("execute"))
	if err := probeKernels(rep, env.store); err != nil {
		return err
	}
	if err := probeEncode(rep, env); err != nil {
		return err
	}
	if err := probeRender(rep, env.eng, ops, 0); err != nil {
		return err
	}
	if err := probeServe(rep, env, ops); err != nil {
		return err
	}
	if err := probeTransport(rep, env.raw[env.series[0]]); err != nil {
		return err
	}
	return probeSerial(rep, env, ops)
}

// valueBlocks parses every TS2DIFF value page of the store.
func valueBlocks(st *storage.Store) ([]*ts2diff.Block, []*storage.Page, error) {
	var blocks []*ts2diff.Block
	var pages []*storage.Page
	for _, name := range st.Names() {
		ser, _ := st.Series(name)
		for _, pp := range ser.PagesInRange(-1<<62, 1<<62) {
			b, err := ts2diff.Unmarshal(pp.Value.Data)
			if err != nil {
				return nil, nil, fmt.Errorf("series %s: %w", name, err)
			}
			blocks = append(blocks, b)
			pages = append(pages, pp.Value)
		}
	}
	return blocks, pages, nil
}

// timeKernel runs pass over all values until probeMin has passed and
// returns ns per value.
func timeKernel(values int, pass func() error) (float64, error) {
	start := time.Now()
	passes := 0
	for time.Since(start) < probeMin || passes < 2 {
		if err := pass(); err != nil {
			return 0, err
		}
		passes++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(values*passes), nil
}

// probeKernels times the unpack, decode, fused-sum, segment-sum and
// serial page-decode kernels over every value page of the store.
func probeKernels(rep *report, st *storage.Store) error {
	blocks, pages, err := valueBlocks(st)
	if err != nil {
		return err
	}
	values, maxCount := 0, 0
	for _, b := range blocks {
		values += b.Count
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	out := make([]int64, maxCount)
	var sink int64
	kernels := []struct {
		name string
		pass func() error
	}{
		{"pipeline.unpack_ns_per_value", func() error {
			for _, b := range blocks {
				m := b.NumPacked()
				if err := pipeline.DecodeDeltasInto(out[:m], b.Packed, m, b.Width, b.MinBase); err != nil {
					return err
				}
			}
			return nil
		}},
		{"pipeline.decode_ns_per_value", func() error {
			for _, b := range blocks {
				if err := pipeline.DecodeBlockInto(out[:b.Count], b); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fusion.sum_ns_per_value", func() error {
			for _, b := range blocks {
				s, err := fusion.SumBlock(b)
				if err != nil {
					return err
				}
				sink += s
			}
			return nil
		}},
		{"fusion.segments_ns_per_value", func() error {
			var sums [4]int64
			for _, b := range blocks {
				cuts := []int{0, b.Count / 4, b.Count / 2, 3 * b.Count / 4, b.Count}
				if err := fusion.SumBlockSegments(b, cuts, sums[:]); err != nil {
					return err
				}
				sink += sums[0]
			}
			return nil
		}},
		{"storage.serial_decode_ns_per_value", func() error {
			for _, p := range pages {
				if _, err := p.Decode(); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, k := range kernels {
		ns, err := timeKernel(values, k.pass)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		rep.set(k.name, "ns", ns)
	}
	rep.Record["kernel_values"] = values
	rep.Record["kernel_sink"] = sink
	return nil
}

// probeEncode times storage.EncodePages over the generated columns.
func probeEncode(rep *report, env *inprocEnv) error {
	points := 0
	for _, c := range env.raw {
		points += len(c.ts)
	}
	ns, err := timeKernel(points, func() error {
		for _, name := range env.series {
			c := env.raw[name]
			if _, err := storage.EncodePages(c.ts, c.vals, storage.Options{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("storage.encode_ns_per_point", "ns", ns)
	return nil
}

// probeRender renders every catalogue result through cli.RenderResult
// (maxRows as the surface caps it; 0 renders in full).
func probeRender(rep *report, eng *engine.Engine, ops []op, maxRows int) error {
	var total time.Duration
	var rows int64
	var cw countingWriter
	for i := range ops {
		res, err := eng.ExecuteSQL(ops[i].sql)
		if err != nil {
			return fmt.Errorf("%s: %w", ops[i].name, err)
		}
		start := time.Now()
		cli.RenderResult(&cw, res, maxRows)
		total += time.Since(start)
		n := int64(len(res.Rows) + len(res.Windows) + len(res.Aggregates))
		if maxRows > 0 && n > int64(maxRows) {
			n = int64(maxRows)
		}
		rows += n
	}
	rep.set("cli.render_ms", "ms", float64(total)/1e6/float64(len(ops)))
	rep.set("cli.render_bytes_per_row", "B", float64(cw.bytes)/float64(rows))
	return nil
}

// probeServe sends every catalogue query through the serve package's
// /query handler in process, with every query logged as slow, and splits
// its time into the engine's traced elapsed time and the rest.
func probeServe(rep *report, env *inprocEnv, ops []op) error {
	srv := &serve.Server{Engine: env.eng, Store: env.store, SlowThreshold: 0, MaxRows: 20, SlowMax: len(ops)}
	h := srv.Handler()
	var total time.Duration
	for i := range ops {
		req := httptest.NewRequest("GET", "/query?q="+url.QueryEscape(ops[i].sql), nil)
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		total += time.Since(start)
		if w.Code != http.StatusOK {
			return fmt.Errorf("serve %s: status %d: %s", ops[i].name, w.Code, w.Body.String())
		}
	}
	var engineNs int64
	traces := srv.SlowEntries()
	for _, t := range traces {
		engineNs += t.ElapsedNs
	}
	n := float64(len(ops))
	rep.set("serve.engine_ms", "ms", float64(engineNs)/1e6/n)
	rep.set("serve.overhead_ms", "ms", (float64(total)-float64(engineNs))/1e6/n)
	return nil
}

// transportProbePoints caps the points the transport probe ships.
const transportProbePoints = 200_000

// probeTransport ships generated points through a transport.Sender into
// transport.Receive over an in-memory pipe and times each flush.
func probeTransport(rep *report, c columns) error {
	n := len(c.ts)
	if n > transportProbePoints {
		n = transportProbePoints
	}
	st := storage.NewStore()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := transport.Receive(pr, st)
		pr.CloseWithError(err)
		done <- err
	}()
	snd := transport.NewSender(pw, storage.DefaultPageSize, storage.Options{})
	flush, flushes, err := sendPoints(snd, "probe", c.ts[:n], c.vals[:n])
	if err == nil {
		err = snd.Close()
	}
	pw.CloseWithError(err)
	if rerr := <-done; err == nil {
		err = rerr
	}
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	landed := 0
	if ser, ok := st.Series("probe"); ok {
		landed = ser.NumPoints()
	}
	rep.set("transport.flush_us", "us", float64(flush)/1e3/float64(flushes))
	rep.set("transport.points_landed_frac", "ratio", float64(landed)/float64(n))
	return nil
}

// sendPoints records points through snd and returns the total time of
// the Record calls that shipped a page, and their number.
func sendPoints(snd *transport.Sender, series string, ts, vals []int64) (time.Duration, int, error) {
	var total time.Duration
	flushes := 0
	for i := range ts {
		start := time.Now()
		if err := snd.Record(series, ts[i], vals[i]); err != nil {
			return 0, 0, err
		}
		if (i+1)%snd.Flush == 0 {
			total += time.Since(start)
			flushes++
		}
	}
	return total, flushes, nil
}

// probeSerial replays the catalogue once in serial mode and once as the
// workload runs it, alternating per query so drift cancels, and reports
// the ratio of their total times.
func probeSerial(rep *report, env *inprocEnv, ops []op) error {
	serial := engine.New(env.store, engine.ModeSerial)
	var tSerial, tMode time.Duration
	for i := range ops {
		for _, side := range []struct {
			eng *engine.Engine
			t   *time.Duration
		}{{serial, &tSerial}, {env.eng, &tMode}} {
			start := time.Now()
			res, err := side.eng.ExecuteSQL(ops[i].sql)
			*side.t += time.Since(start)
			if err != nil {
				return fmt.Errorf("%s (%v): %w", ops[i].name, side.eng.Mode, err)
			}
			rep.Attempted++
			if err := ops[i].check(res); err != nil {
				rep.Failed++
				noteFailure(rep, fmt.Errorf("%s (%v): %w", ops[i].name, side.eng.Mode, err))
			}
		}
	}
	rep.set("engine.speedup_vs_serial", "ratio", float64(tSerial)/float64(tMode))
	return nil
}
