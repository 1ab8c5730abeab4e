package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"neutrality/internal/grid"
)

// Property tests for the aggregate merge algebra. The law under test
// (see the package comment): Agg.Merge is associative and commutative
// up to byte-identical Summary() output, the empty aggregate is the
// identity, and merging the P partition aggregates of a split equals
// the single-run aggregate. Counts, bins, events, and min/max merge
// exactly; only the Welford moments carry floating-point rounding,
// far below Summary's printed precision. All cases are seeded, so the
// grids and record streams are stable across runs.

// randomAggGrid builds a randomized small grid: 1–4 axes of 1–4
// values each, mixing numeric and string axes.
func randomAggGrid(rng *rand.Rand, name string) *grid.Grid {
	g := grid.New(name, grid.Base{ScaleFactor: 1, DurationSec: 1})
	axes := 1 + rng.Intn(4)
	for a := 0; a < axes; a++ {
		n := 1 + rng.Intn(4)
		vals := make([]grid.Value, n)
		for v := range vals {
			if rng.Intn(2) == 0 {
				vals[v] = grid.Num(math.Round(rng.Float64()*1000) / 1000)
			} else {
				vals[v] = grid.Str(fmt.Sprintf("v%d", v))
			}
		}
		g.Add(fmt.Sprintf("ax%d", a), vals...)
	}
	return g
}

// randomRecords synthesizes one record per cell with randomized
// metrics (the aggregate does not care whether records came from real
// emulation).
func randomRecords(rng *rand.Rand, g *grid.Grid) []Record {
	recs := make([]Record, g.Cells())
	for i := range recs {
		recs[i] = Record{
			Cell:          i,
			Seed:          rng.Int63(),
			Verdict:       rng.Intn(2) == 0,
			Unsolvability: rng.ExpFloat64(),
			FN:            rng.Float64(),
			FP:            rng.Float64(),
			Granularity:   rng.Float64() * 5,
			Detected:      rng.Intn(4),
			Sequences:     1 + rng.Intn(3),
			Events:        uint64(rng.Intn(1 << 20)),
		}
	}
	return recs
}

// aggOf folds a record slice into a fresh aggregate.
func aggOf(g *grid.Grid, recs []Record) *Agg {
	a := NewAgg(g)
	for _, r := range recs {
		a.Add(r)
	}
	return a
}

// TestAggMergePartitionsEqualSingleRun: splitting a randomized record
// stream into P contiguous partitions, aggregating each, and merging
// in order reproduces the single-run aggregate's Summary byte for
// byte.
func TestAggMergePartitionsEqualSingleRun(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		g := randomAggGrid(rng, fmt.Sprintf("prop-%d", trial))
		recs := randomRecords(rng, g)
		want := aggOf(g, recs).Summary()

		p := 1 + rng.Intn(5)
		block := 1 + rng.Intn(4)
		merged := NewAgg(g)
		for k := 1; k <= p; k++ {
			r, err := grid.PartitionBlocks(len(recs), block, k, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(aggOf(g, recs[r.Lo:r.Hi])); err != nil {
				t.Fatal(err)
			}
		}
		if got := merged.Summary(); got != want {
			t.Fatalf("trial %d: merged summary diverged:\n%s\nvs\n%s", trial, got, want)
		}
	}
}

// TestAggMergeCommutative: A∪B and B∪A summarize identically.
func TestAggMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		g := randomAggGrid(rng, fmt.Sprintf("comm-%d", trial))
		recs := randomRecords(rng, g)
		cut := rng.Intn(len(recs) + 1)

		ab := aggOf(g, recs[:cut])
		if err := ab.Merge(aggOf(g, recs[cut:])); err != nil {
			t.Fatal(err)
		}
		ba := aggOf(g, recs[cut:])
		if err := ba.Merge(aggOf(g, recs[:cut])); err != nil {
			t.Fatal(err)
		}
		if ab.Summary() != ba.Summary() {
			t.Fatalf("trial %d (cut %d): merge is not commutative:\n%s\nvs\n%s",
				trial, cut, ab.Summary(), ba.Summary())
		}
	}
}

// TestAggMergeAssociative: (A∪B)∪C and A∪(B∪C) summarize identically.
func TestAggMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 50; trial++ {
		g := randomAggGrid(rng, fmt.Sprintf("assoc-%d", trial))
		recs := randomRecords(rng, g)
		c1 := rng.Intn(len(recs) + 1)
		c2 := c1 + rng.Intn(len(recs)-c1+1)
		parts := [][]Record{recs[:c1], recs[c1:c2], recs[c2:]}

		left := aggOf(g, parts[0])
		if err := left.Merge(aggOf(g, parts[1])); err != nil {
			t.Fatal(err)
		}
		if err := left.Merge(aggOf(g, parts[2])); err != nil {
			t.Fatal(err)
		}
		bc := aggOf(g, parts[1])
		if err := bc.Merge(aggOf(g, parts[2])); err != nil {
			t.Fatal(err)
		}
		right := aggOf(g, parts[0])
		if err := right.Merge(bc); err != nil {
			t.Fatal(err)
		}
		if left.Summary() != right.Summary() {
			t.Fatalf("trial %d (cuts %d,%d): merge is not associative:\n%s\nvs\n%s",
				trial, c1, c2, left.Summary(), right.Summary())
		}
	}
}

// TestAggMergeIdentity: the empty aggregate is a two-sided identity —
// and exactly, not just up to rendering: merging with an empty side
// copies bits.
func TestAggMergeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := randomAggGrid(rng, "ident")
	recs := randomRecords(rng, g)
	want := aggOf(g, recs).Summary()

	a := aggOf(g, recs)
	if err := a.Merge(NewAgg(g)); err != nil {
		t.Fatal(err)
	}
	if a.Summary() != want {
		t.Fatal("right identity broken")
	}
	b := NewAgg(g)
	if err := b.Merge(aggOf(g, recs)); err != nil {
		t.Fatal(err)
	}
	if b.Summary() != want {
		t.Fatal("left identity broken")
	}
	// Exactness of the empty-side merges extends to the raw moments.
	ref := aggOf(g, recs)
	if b.global.fn.Mean != ref.global.fn.Mean || b.global.fn.Var() != ref.global.fn.Var() {
		t.Fatal("left-identity merge did not copy moments bit-exactly")
	}
}

// TestAggMergeRejectsDifferentGrids: aggregates of different specs do
// not merge.
func TestAggMergeRejectsDifferentGrids(t *testing.T) {
	g1 := grid.New("a", grid.Base{ScaleFactor: 1, DurationSec: 1}).Add("rate", grid.Nums(0.1, 0.2)...)
	g2 := grid.New("a", grid.Base{ScaleFactor: 1, DurationSec: 2}).Add("rate", grid.Nums(0.1, 0.2)...)
	if err := NewAgg(g1).Merge(NewAgg(g2)); err == nil {
		t.Fatal("cross-grid merge accepted")
	}
}
