package cli

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etsqp/internal/engine"
	"etsqp/internal/exec"
	"etsqp/internal/expr"
	"etsqp/internal/storage"
)

// renderCase is one golden-rendered statement.
type renderCase struct {
	name    string
	sql     string
	maxRows int
}

// renderCases covers every RenderResult branch: projection, UNION (with
// NullValue on both sides), star-join and scan rows, the maxRows cap,
// window rows and sorted aggregates.
var renderCases = []renderCase{
	{"Q4 projection", "SELECT a.A + b.A FROM a, b", 0},
	{"Q5 union", "SELECT * FROM a UNION b ORDER BY TIME", 0},
	{"Q5 union limit", "SELECT * FROM a UNION b ORDER BY TIME LIMIT 41", 0},
	{"Q6 star join", "SELECT * FROM a, b", 0},
	{"Q6 join filtered", "SELECT * FROM a, b WHERE b.A > 0", 0},
	{"limit scan", "SELECT * FROM a WHERE A > -500 LIMIT 37", 0},
	{"full scan", "SELECT * FROM b", 0},
	{"maxRows union", "SELECT * FROM a UNION b ORDER BY TIME", 7},
	{"maxRows exact", "SELECT * FROM a LIMIT 5", 5},
	{"empty rows", "SELECT * FROM a WHERE A > 999999999999999999", 3},
	{"windows sum", "SELECT SUM(A) FROM a SW(1000, 400)", 0},
	{"windows avg", "SELECT AVG(A) FROM a SW(1000, 700, 350)", 0},
	{"aggregates", "SELECT SUM(A), COUNT(A), AVG(A), MIN(A), MAX(A), VAR(A) FROM a", 0},
}

// renderStore builds two interleaved series over multi-page storage:
// b shares every third timestamp of a and adds timestamps of its own,
// so the UNION has left-only, right-only and matched rows. Values span
// negative, zero and large magnitudes.
func renderStore(t testing.TB) *storage.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var at, av, bt, bv []int64
	cur := int64(1000)
	for i := 0; i < 600; i++ {
		cur += 3 + rng.Int63n(9)
		at = append(at, cur)
		v := rng.Int63n(2001) - 1000
		if i%97 == 0 {
			v = (rng.Int63n(2)*2-1)*(1<<50) + v
		}
		av = append(av, v)
		switch i % 3 {
		case 0:
			bt = append(bt, cur)
			bv = append(bv, rng.Int63n(4001)-2000)
		case 1:
			bt = append(bt, cur+1)
			bv = append(bv, -rng.Int63n(1_000_000_000))
		}
	}
	st := storage.NewStore()
	opts := storage.Options{PageSize: 64}
	if err := st.Append("a", at, av, opts); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("b", bt, bv, opts); err != nil {
		t.Fatal(err)
	}
	return st
}

// renderAll renders every case through RenderResult, each under a
// "== name ==" header.
func renderAll(t testing.TB, eng *engine.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range renderCases {
		res, err := eng.ExecuteSQL(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&buf, "== %s (maxRows %d) ==\n", c.name, c.maxRows)
		RenderResult(&buf, res, c.maxRows)
	}
	return buf.Bytes()
}

// TestRenderResultGolden pins RenderResult's bytes for every result
// shape against testdata/render.golden, with and without the
// decoded-page cache. Three workers split the row queries into several
// time ranges.
func TestRenderResultGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "render.golden"))
	if err != nil {
		t.Fatal(err)
	}
	st := renderStore(t)
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			eng := engine.New(st, engine.ModeETSQP)
			eng.Workers = 3
			if cached {
				eng.Cache = exec.NewPageCache(16 << 20)
			}
			for pass := 0; pass < 2; pass++ { // a warm cache must render the same
				got := renderAll(t, eng)
				if !bytes.Equal(got, want) {
					t.Fatalf("pass %d: render differs from golden at %s", pass, firstDiff(got, want))
				}
			}
		})
	}
}

// firstDiff describes the first differing line of got against want.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length: got %d lines, want %d", len(g), len(w))
}

// chunkWriter records the size of every Write.
type chunkWriter struct {
	bytes.Buffer
	writes []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestRenderRowsMatchesFmt: the strconv renderer reproduces fmt's
// "%d\t%v" lines for extreme values, empty and wide rows, across
// several chunk flushes, and writes in chunks of at most renderChunk
// bytes, each but the last within renderLineMax of it.
func TestRenderRowsMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, expr.NullValue}
	rows := make([]engine.Row, 5000)
	for i := range rows {
		vals := make([]int64, i%4)
		for j := range vals {
			if rng.Intn(3) == 0 {
				vals[j] = special[rng.Intn(len(special))]
			} else {
				vals[j] = rng.Int63() - math.MaxInt64/2
			}
		}
		rows[i] = engine.Row{Time: special[i%len(special)] + int64(i), Values: vals}
	}
	for _, maxRows := range []int{0, 1, 4999, 5000, 5001, 3100} {
		var want bytes.Buffer
		for i, r := range rows {
			if maxRows > 0 && i >= maxRows {
				fmt.Fprintf(&want, "  ... %d more rows\n", len(rows)-maxRows)
				break
			}
			fmt.Fprintf(&want, "  %d\t%v\n", r.Time, r.Values)
		}
		var got chunkWriter
		renderRows(&got, rows, maxRows)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("maxRows %d: %s", maxRows, firstDiff(got.Bytes(), want.Bytes()))
		}
		for i, n := range got.writes {
			if n > renderChunk || (i < len(got.writes)-1 && n <= renderChunk-renderLineMax) {
				t.Fatalf("maxRows %d: write %d of %d is %d bytes, chunk %d", maxRows, i, len(got.writes), n, renderChunk)
			}
		}
	}
	var empty chunkWriter
	renderRows(&empty, nil, 0)
	if len(empty.writes) != 0 {
		t.Fatalf("no rows: %d writes", len(empty.writes))
	}
	failing := failWriter{}
	renderRows(&failing, rows, 0)
	if failing.calls != 1 {
		t.Fatalf("rendering went on after a failed write: %d writes", failing.calls)
	}
}

// failWriter fails every Write.
type failWriter struct{ calls int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.calls++
	return 0, io.ErrClosedPipe
}
