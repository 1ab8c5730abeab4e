package neutral

import (
	"math"
	"testing"

	"neutrality/internal/graph"
	"neutrality/internal/matrix"
	"neutrality/internal/routing"
	"neutrality/internal/topo"
)

func nonNeutralPerf(n *graph.Network, linkName string, x1, x2 float64) graph.Perf {
	perf := graph.NewPerf(n.NumLinks(), n.NumClasses())
	l, ok := n.LinkByName(linkName)
	if !ok {
		panic("no link " + linkName)
	}
	perf.Set(l.ID, 0, x1)
	perf.Set(l.ID, 1, x2)
	return perf
}

// TestFigure2Equivalent checks the G⁺ construction against the paper's
// Figure 2(b)/(d): l1 maps to l1+(1) (both paths) and l1+(2) (only p2).
func TestFigure2Equivalent(t *testing.T) {
	n := topo.Figure2()
	perf := nonNeutralPerf(n, "l1", 0.1, 0.5)
	eq := Build(n, perf)
	if len(eq.Virtual) != 4 {
		t.Fatalf("|L+| = %d, want 4", len(eq.Virtual))
	}
	// Virtual link order: l1+(1), l1+(2), l2+, l3+.
	v0, v1 := eq.Virtual[0], eq.Virtual[1]
	if v0.Class != -1 || len(v0.Paths) != 2 || math.Abs(v0.Perf-0.1) > 1e-12 {
		t.Errorf("common queue wrong: %+v", v0)
	}
	if v1.Class != 1 || len(v1.Paths) != 1 || v1.Paths[0] != 1 || math.Abs(v1.Perf-0.4) > 1e-12 {
		t.Errorf("regulation link wrong: %+v", v1)
	}

	// Routing matrix A+ over {p1},{p2} must match Figure 2(d):
	//          l1+(1) l1+(2) l2+ l3+
	//   {p1}     1      0     1   0
	//   {p2}     1      1     0   1
	a := eq.RoutingMatrix([]graph.Pathset{{0}, {1}})
	want := [][]float64{{1, 0, 1, 0}, {1, 1, 0, 1}}
	for i := range want {
		for j := range want[i] {
			if a.At(i, j) != want[i][j] {
				t.Errorf("A+[%d][%d] = %v, want %v", i, j, a.At(i, j), want[i][j])
			}
		}
	}
}

// TestFigure2NotObservable is the paper's flagship negative example:
// l1's differentiation can always be attributed to l3.
func TestFigure2NotObservable(t *testing.T) {
	n := topo.Figure2()
	perf := nonNeutralPerf(n, "l1", 0.1, 0.5)
	if w := Observable(n, perf); len(w) != 0 {
		t.Fatalf("Figure 2 reported observable: %+v", w)
	}
	// And indeed every system over every pathset family is consistent.
	eq := Build(n, perf)
	all := n.PowerSetPathsets()
	y := eq.Observations(all)
	a := routing.Matrix(n, all)
	if !matrix.Consistent(a, y, 0) {
		t.Fatal("non-observable violation produced an unsolvable system")
	}
}

// TestFigure1Observable checks the paper's observable violation #1 and the
// Figure 3(b) routing matrix of the equivalent network.
func TestFigure1Observable(t *testing.T) {
	n := topo.Figure1()
	perf := topo.Figure1Perf(n)
	ws := Observable(n, perf)
	if len(ws) == 0 {
		t.Fatal("Figure 1 violation not observable")
	}
	l1, _ := n.LinkByName("l1")
	if ws[0].Link != l1.ID || ws[0].Class != 1 {
		t.Fatalf("witness = %+v, want l1 class 2", ws[0])
	}

	// Figure 3(b): A+ over all seven pathsets with columns
	// l1+(1), l1+(2), l2+, l3+, l4+.
	eq := Build(n, perf)
	if len(eq.Virtual) != 5 {
		t.Fatalf("|L+| = %d, want 5", len(eq.Virtual))
	}
	// p2 alone crosses l1's regulation link, whose gap is 0.693.
	if y := eq.Observations([]graph.Pathset{{1}}); math.Abs(y[0]-0.693) > 1e-9 {
		t.Fatalf("y(p2) = %v", y[0])
	}
	pathsets := []graph.Pathset{
		{0}, {1}, {2},
		graph.NewPathset(0, 1), graph.NewPathset(0, 2), graph.NewPathset(1, 2),
		graph.NewPathset(0, 1, 2),
	}
	want := [][]float64{
		{1, 0, 1, 0, 0},
		{1, 1, 0, 1, 0},
		{0, 0, 0, 1, 1},
		{1, 1, 1, 1, 0},
		{1, 0, 1, 1, 1},
		{1, 1, 0, 1, 1},
		{1, 1, 1, 1, 1},
	}
	a := eq.RoutingMatrix(pathsets)
	for i := range want {
		for j := range want[i] {
			if a.At(i, j) != want[i][j] {
				t.Errorf("A+[%d][%d] = %v, want %v (Figure 3(b))", i, j, a.At(i, j), want[i][j])
			}
		}
	}

	// The violation produces an unsolvable System 3 over the full power
	// set (Theorem 1's sufficiency witness).
	all := n.PowerSetPathsets()
	y := eq.Observations(all)
	am := routing.Matrix(n, all)
	if matrix.Consistent(am, y, 0) {
		t.Fatal("observable violation produced only solvable systems")
	}
}

// TestFigure5Observable is observable violation #2: detection requires the
// pathset {p2,p3}; single-path observations alone stay consistent.
func TestFigure5Observable(t *testing.T) {
	n := topo.Figure5()
	perf := topo.Figure5Perf(n)
	if ws := Observable(n, perf); len(ws) == 0 {
		t.Fatal("Figure 5 violation not observable")
	}
	eq := Build(n, perf)

	// Single paths only: consistent (y1=0 forces x1=x2=0, but y2, y3 can
	// be attributed to l3 and l4).
	singles := n.SingletonPathsets()
	y := eq.Observations(singles)
	if !matrix.ConsistentNonneg(routing.Matrix(n, singles), y, 0) {
		t.Fatal("single-path system should be solvable")
	}

	// Adding the pathset {p2,p3} exposes the correlation: p2 and p3 are
	// congested at the same time, which no neutral assignment with
	// non-negative performance numbers explains.
	withPair := append(append([]graph.Pathset(nil), singles...), graph.NewPathset(1, 2))
	y2 := eq.Observations(withPair)
	if matrix.ConsistentNonneg(routing.Matrix(n, withPair), y2, 0) {
		t.Fatal("pair-augmented system should be unsolvable")
	}
	// Over the reals (sign-unconstrained) the same system is solvable —
	// the non-negativity of −log P is what carries the detection.
	if !matrix.Consistent(routing.Matrix(n, withPair), y2, 0) {
		t.Fatal("expected the unconstrained system to be solvable")
	}
	// Numeric spot check from the paper: y2 = y3 = y4 = −log 0.5.
	log2 := math.Log(2)
	for i, want := range []float64{0, log2, log2, log2} {
		if math.Abs(y2[i]-want) > 1e-9 {
			t.Errorf("y[%d] = %v, want %v", i, y2[i], want)
		}
	}
}

// TestFigure4Observable: l1's and l2's violations are observable (the
// virtual regulation links are distinguishable via p4).
func TestFigure4Observable(t *testing.T) {
	n := topo.Figure4()
	perf := graph.NewPerf(n.NumLinks(), n.NumClasses())
	for _, name := range []string{"l1", "l2"} {
		l, _ := n.LinkByName(name)
		perf.Set(l.ID, 0, 0.05)
		perf.Set(l.ID, 1, 0.8)
	}
	ws := Observable(n, perf)
	if len(ws) == 0 {
		t.Fatal("Figure 4 violations not observable")
	}
	// l1's regulation link l1+(2) covers {p2,p3,p4}, which no original
	// link matches.
	found := false
	l1, _ := n.LinkByName("l1")
	for _, w := range ws {
		if w.Link == l1.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("l1 missing from witnesses: %+v", ws)
	}
}

// TestZeroGapNotObservable: a "non-neutral" link whose class performance
// numbers are equal yields no witness (the theorem's x(n)≠x(n*) clause).
func TestZeroGapNotObservable(t *testing.T) {
	n := topo.Figure1()
	perf := nonNeutralPerf(n, "l1", 0.3, 0.3)
	if ws := Observable(n, perf); len(ws) != 0 {
		t.Fatalf("equal-class link reported observable: %+v", ws)
	}
}

// TestNeutralNetworkNotObservable: no virtual regulation links exist.
func TestNeutralNetworkNotObservable(t *testing.T) {
	n := topo.Figure1()
	perf := graph.NewPerf(n.NumLinks(), n.NumClasses())
	perf.SetNeutral(0, 0.4)
	if ws := Observable(n, perf); len(ws) != 0 {
		t.Fatalf("neutral network reported observable: %+v", ws)
	}
	eq := Build(n, perf)
	if len(eq.Virtual) != n.NumLinks() {
		t.Fatalf("neutral equivalent has %d links, want %d", len(eq.Virtual), n.NumLinks())
	}
}

// TestEquivalentObservationsAdditive verifies Equations 1–2 compose: the
// observation of a multi-path pathset equals the sum over the virtual
// links any member path traverses.
func TestEquivalentObservationsAdditive(t *testing.T) {
	n := topo.Figure1()
	perf := topo.Figure1Perf(n)
	perf.SetNeutral(2, 0.2) // l3 neutral 0.2
	eq := Build(n, perf)
	y := eq.Observations([]graph.Pathset{
		{0}, {1}, graph.NewPathset(0, 1),
	})
	// p1 sees l1 common queue (x=0) + l2 (0): y=0... plus nothing else.
	if math.Abs(y[0]-0) > 1e-12 {
		t.Errorf("y(p1) = %v", y[0])
	}
	// p2 sees l1 common (0) + regulation (0.693) + l3 (0.2).
	if math.Abs(y[1]-(0.693+0.2)) > 1e-9 {
		t.Errorf("y(p2) = %v", y[1])
	}
	// {p1,p2}: union of virtual links = same as p2 plus l2 (0).
	if math.Abs(y[2]-(0.693+0.2)) > 1e-9 {
		t.Errorf("y({p1,p2}) = %v", y[2])
	}
}

// TestObservableStructural: topology-level observability with all-class
// gaps assumed, per Figure 2 vs Figure 4.
func TestObservableStructural(t *testing.T) {
	n2 := topo.Figure2()
	l1, _ := n2.LinkByName("l1")
	if ws := ObservableStructural(n2, []graph.LinkID{l1.ID}); len(ws) != 0 {
		t.Fatalf("Figure 2 structurally observable: %+v", ws)
	}
	n4 := topo.Figure4()
	l14, _ := n4.LinkByName("l1")
	if ws := ObservableStructural(n4, []graph.LinkID{l14.ID}); len(ws) == 0 {
		t.Fatal("Figure 4 not structurally observable")
	}
}

func TestPerfVectorMatchesVirtualOrder(t *testing.T) {
	n := topo.Figure2()
	perf := nonNeutralPerf(n, "l1", 0.1, 0.5)
	eq := Build(n, perf)
	pv := eq.PerfVector()
	for i, v := range eq.Virtual {
		if pv[i] != v.Perf {
			t.Fatalf("PerfVector[%d] = %v, virtual = %v", i, pv[i], v.Perf)
		}
	}
}
