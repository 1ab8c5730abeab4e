package sweep

import (
	"math"
	"testing"

	"neutrality/internal/grid"
)

// TestAggSlices: per-axis marginal aggregation groups cells by their
// value on that axis.
func TestAggSlices(t *testing.T) {
	g := grid.New("t", grid.Base{ScaleFactor: 1, DurationSec: 1}).
		Add("rate", grid.Nums(0.2, 0.4)...).
		Add("rep", grid.Nums(0, 1, 2)...)
	a := NewAgg(g)
	for i := 0; i < g.Cells(); i++ {
		r := Record{Cell: i, Verdict: i < 3, FN: float64(i) / 10}
		a.Add(r)
	}
	// Axis 0 value 0 (rate=0.2) covers cells 0,1,2 — all verdicts true.
	m := a.slices[0][0]
	if m.cells != 3 || m.nonNeutral != 3 {
		t.Fatalf("rate=0.2 slice: %+v", m)
	}
	m = a.slices[0][1]
	if m.cells != 3 || m.nonNeutral != 0 {
		t.Fatalf("rate=0.4 slice: %+v", m)
	}
	// Axis 1 value 0 (rep=0) covers cells 0 and 3.
	m = a.slices[1][0]
	if m.cells != 2 || math.Abs(m.fn.Mean-0.15) > 1e-12 {
		t.Fatalf("rep=0 slice: cells=%d fnMean=%v", m.cells, m.fn.Mean)
	}
}
