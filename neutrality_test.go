package neutrality_test

import (
	"math"
	"testing"

	"neutrality"
	"neutrality/internal/neutral"
	"neutrality/internal/nslice"
)

// These tests exercise the public API exactly as a downstream user would.

func TestPublicQuickstartFlow(t *testing.T) {
	net := neutrality.Figure5()
	perf := neutrality.Figure5Perf(net)

	// Theorem 1: the violation is observable.
	if ws := neutrality.Observable(net, perf); len(ws) == 0 {
		t.Fatal("violation not observable")
	}

	// Exact inference localizes it to <l1>.
	res := neutrality.Infer(net, neutrality.YFunc(neutrality.ExactY(net, perf)), neutrality.Config{Mode: neutrality.Exact})
	flagged := res.NonNeutralSeqs()
	if len(flagged) != 1 {
		t.Fatalf("flagged %d sequences", len(flagged))
	}
	l1, _ := net.LinkByName("l1")
	if len(flagged[0].Slice.Seq) != 1 || flagged[0].Slice.Seq[0] != l1.ID {
		t.Fatalf("flagged %s, want <l1>", flagged[0].SeqNames())
	}
	m := neutrality.Evaluate(res, []neutrality.LinkID{l1.ID})
	if m.FalseNegativeRate != 0 || m.FalsePositiveRate != 0 || m.Granularity != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestPublicBuilderAPI(t *testing.T) {
	b := neutrality.NewBuilder()
	src := b.Host("src")
	mid := b.Relay("mid")
	dst1 := b.Host("dst1")
	dst2 := b.Host("dst2")
	b.Link("up", src, mid)
	b.Link("down1", mid, dst1)
	b.Link("down2", mid, dst2)
	b.Path("a", neutrality.C1, "up", "down1")
	b.Path("b", neutrality.C2, "up", "down2")
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net.NumLinks() != 3 || net.NumClasses() != 2 {
		t.Fatalf("got %s", net)
	}
}

func TestPublicSyntheticPipeline(t *testing.T) {
	net := neutrality.Figure4()
	perf := neutrality.NewPerf(net.NumLinks(), net.NumClasses())
	l1, _ := net.LinkByName("l1")
	perf.Set(l1.ID, neutrality.C1, 0.05)
	perf.Set(l1.ID, neutrality.C2, 0.7)

	sampler := neutrality.NewSampler(net, perf, 11)
	states := sampler.SampleIntervals(5000)
	meas := neutrality.SyntheticMeasurements(states, neutrality.DefaultSyntheticOptions())
	res := neutrality.InferMeasured(net, meas, neutrality.DefaultMeasureOptions())
	if !res.NetworkNonNeutral() {
		t.Fatalf("violation missed:\n%s", neutrality.Report(res))
	}
	m := neutrality.Evaluate(res, []neutrality.LinkID{l1.ID})
	if m.FalseNegativeRate != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestPublicEmulationPipeline(t *testing.T) {
	p := neutrality.DefaultParamsA().Scale(0.1, 60)
	p.MeanFlowMb = [2]float64{100, 100}
	p.Diff = neutrality.PoliceClass2(0.3)
	e, a := p.Experiment("public-api")
	run, err := neutrality.RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	res := neutrality.InferMeasured(a.Net, run.Meas, neutrality.DefaultMeasureOptions())
	if !res.NetworkNonNeutral() {
		t.Fatalf("emulated policing missed:\n%s", neutrality.Report(res))
	}
}

func TestPublicBaselines(t *testing.T) {
	net := neutrality.Figure1()
	perf := neutrality.Figure1Perf(net)
	states := neutrality.NewSampler(net, perf, 3).SampleIntervals(5000)
	boolRes := neutrality.BooleanTomography(net, states)
	if boolRes.Unexplained == 0 {
		t.Fatal("Boolean baseline should fail to explain the Figure 1 violation")
	}

	pathsets := neutrality.PowerSetPathsets(net)
	y := make([]float64, len(pathsets))
	exact := neutrality.ExactY(net, perf)
	for i, ps := range pathsets {
		y[i] = exact(ps)
	}
	loss := neutrality.LossTomography(net, pathsets, y)
	if loss.Residual < 0.01 {
		t.Fatalf("loss-tomography residual %v should reveal inconsistency", loss.Residual)
	}
}

func TestPublicTheoryHelpers(t *testing.T) {
	net := neutrality.Figure2()
	l1, _ := net.LinkByName("l1")
	if ws := neutrality.ObservableStructural(net, []neutrality.LinkID{l1.ID}); len(ws) != 0 {
		t.Fatal("Figure 2 should be structurally non-observable")
	}
	slices := neutrality.Slices(neutrality.Figure4())
	if len(slices) != 2 {
		t.Fatalf("Figure 4 slices = %d", len(slices))
	}
	pathsets := []neutrality.Pathset{{0, 1}}
	a := neutrality.RoutingMatrix(net, pathsets)
	if a.Rows != 1 || a.Cols != 3 {
		t.Fatalf("routing matrix %dx%d", a.Rows, a.Cols)
	}
	// A zero least-squares residual is consistency over the reals.
	if res := neutrality.LossTomography(net, pathsets, []float64{1}).Residual; res > 1e-9 {
		t.Fatalf("single-row system should be consistent, residual %v", res)
	}
	if !neutrality.ConsistentNonneg(a, []float64{1}, 0) {
		t.Fatal("single-row system should be non-negatively consistent")
	}
}

// The equivalent network and explicit slices have no root wrappers; these
// tests build them from public-API topologies, as the internal packages
// expose them.

func TestPublicEquivalentNetwork(t *testing.T) {
	net := neutrality.Figure1()
	perf := neutrality.Figure1Perf(net)
	eq := neutral.Build(net, perf)
	if len(eq.Virtual) != 5 {
		t.Fatalf("|L+| = %d", len(eq.Virtual))
	}
	y := eq.Observations([]neutrality.Pathset{{1}})
	if math.Abs(y[0]-0.693) > 1e-9 {
		t.Fatalf("y(p2) = %v", y[0])
	}
}

func TestPublicSliceFor(t *testing.T) {
	net := neutrality.Figure4()
	l2, _ := net.LinkByName("l2")
	s := nslice.For(net, []neutrality.LinkID{l2.ID})
	if s.Identifiable() {
		t.Fatal("<l2> must not be identifiable")
	}
	if nslice.Unsolvability(nil) != 0 {
		t.Fatal("empty unsolvability")
	}
}
