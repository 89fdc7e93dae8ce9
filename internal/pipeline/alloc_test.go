package pipeline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"etsqp/internal/encoding/ts2diff"
	"etsqp/internal/obs"
)

// TestUnpackLoopAllocs is the runtime cross-check of the hotpathalloc
// analyzer: once the plan cache is warm, decoding into caller-provided
// memory must not allocate — across the narrow (gather), wide
// (8-byte-window) and degenerate (width 0) paths, for order-1 blocks
// and for order-2 blocks (whose stage-1 deltas decode in place), with
// observability both off and on.
func TestUnpackLoopAllocs(t *testing.T) {
	defer obs.Disable()
	type tc struct {
		name string
		blk  *ts2diff.Block
	}
	var cases []tc
	for _, w := range []uint{0, 4, 10, 16, MaxNarrowWidth, 30} {
		blk, err := ts2diff.Encode(seriesWithWidthB(4096, w), ts2diff.Order1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("width=%d", w), blk})
	}
	for _, jitter := range []int64{0, 7} {
		blk, err := ts2diff.Encode(jitteredTimes(4096, jitter), ts2diff.Order2)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("order2/width=%d", blk.Width), blk})
	}
	for _, c := range cases {
		blk := c.blk
		out := make([]int64, blk.Count)
		if err := DecodeBlockInto(out, blk); err != nil { // warm plan cache
			t.Fatal(err)
		}
		if want, _ := blk.Decode(); !slices.Equal(out, want) {
			t.Fatalf("%s: DecodeBlockInto differs from the scalar decode", c.name)
		}
		for _, on := range []bool{false, true} {
			if on {
				obs.Enable()
			} else {
				obs.Disable()
			}
			t.Run(fmt.Sprintf("%s/obs=%v", c.name, on), func(t *testing.T) {
				if n := testing.AllocsPerRun(100, func() {
					if err := DecodeBlockInto(out, blk); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Fatalf("DecodeBlockInto allocates %.1f/op", n)
				}
			})
		}
	}
}

// jitteredTimes returns n timestamps whose interval drifts by up to
// ±jitter per step (jitter 0 = constant interval, width-0 order-2).
func jitteredTimes(n int, jitter int64) []int64 {
	rng := rand.New(rand.NewSource(int64(n) + jitter))
	ts := make([]int64, n)
	cur, interval := int64(1_700_000_000_000), int64(1000)
	for i := range ts {
		ts[i] = cur
		if jitter > 0 {
			interval += rng.Int63n(2*jitter+1) - jitter
		}
		cur += interval
	}
	return ts
}

// TestDecodeDeltasIntoAllocs checks the delta kernel and the packed-sum
// kernel stay allocation-free with a warm plan cache.
func TestDecodeDeltasIntoAllocs(t *testing.T) {
	for _, w := range []uint{4, 10, MaxNarrowWidth, 30} {
		vals := seriesWithWidthB(4096, w)
		blk, err := ts2diff.Encode(vals, ts2diff.Order1)
		if err != nil {
			t.Fatal(err)
		}
		m := blk.NumPacked()
		out := make([]int64, m)
		if err := DecodeDeltasInto(out, blk.Packed, m, blk.Width, blk.MinBase); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := DecodeDeltasInto(out, blk.Packed, m, blk.Width, blk.MinBase); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("width=%d: DecodeDeltasInto allocates %.1f/op", w, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := SumPacked(blk.Packed, m, blk.Width); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("width=%d: SumPacked allocates %.1f/op", w, n)
		}
	}
}
