package sweep

import (
	"context"
	"fmt"

	"neutrality/internal/core"
	"neutrality/internal/graph"
	"neutrality/internal/grid"
	"neutrality/internal/lab"
	"neutrality/internal/measure"
	"neutrality/internal/runner"
)

// Axis vocabulary. A grid cell is turned into one experiment + one
// inference pass by applying its axis values on top of the default
// topology-A/B parameters (already scaled to the grid's Base). Values
// are absolute knob settings at that scale.
//
// Scenario axes (this package):
//
//	topo      "a" | "b" — the emulated topology (default "a")
//	diff      "none" | "police" | "shape" — the differentiation
//	          mechanism on the scenario's standard links (default
//	          "none" for topology A; topology B requires "police",
//	          its three-policer scenario)
//	rate      differentiation rate as a fraction of capacity, in (0,1)
//	dfrac     discrimination fraction: the share of offered load
//	          placed on the discriminated class c2, in (0,1); 0.5
//	          keeps the defaults' equal split. Implemented by scaling
//	          the per-class mean flow sizes by 2·dfrac (c2) and
//	          2·(1−dfrac) (c1), preserving total offered load.
//	rep       replica index; sets nothing, but distinct cells derive
//	          distinct seeds, so a rep axis turns every configuration
//	          into N independent replicas
//
// Inference axes (this package):
//
//	lossthr   measurement loss threshold, in (0,1)
//	normalize "on" | "off" — Algorithm 2 traffic normalization
//	mingap    clustering minimum unsolvability gap, > 0
//
// Parameter axes (delegated to lab.ApplyAxisA; topology A only):
//
//	flows, rtt, c2rtt, flowmb, c1mb, c2mb, cca, c2cca, gap, interval
//
// Topology B supports the scenario and inference axes plus rtt, gap,
// and interval; the per-class topology-A knobs have no B counterpart
// and fail cell materialization.

// paramAxes are the lab.ApplyAxisA axes, with the subset that also
// applies to topology B marked.
var paramAxes = map[string]struct{ b bool }{
	"flows":    {false},
	"rtt":      {true},
	"c2rtt":    {false},
	"flowmb":   {false},
	"c1mb":     {false},
	"c2mb":     {false},
	"cca":      {false},
	"c2cca":    {false},
	"gap":      {true},
	"interval": {true},
}

// scenarioAxes are the axes this package applies itself.
var scenarioAxes = map[string]bool{
	"topo": true, "diff": true, "rate": true, "dfrac": true, "rep": true,
	"lossthr": true, "normalize": true, "mingap": true,
}

// Validate checks that g is structurally valid and every axis is part
// of the vocabulary with values in its domain, so a bad spec fails
// before any cell runs. Cross-axis constraints that depend on the
// combination (topology B with per-class knobs) surface when the
// offending cell materializes.
func Validate(g *grid.Grid) error {
	if err := g.Validate(); err != nil {
		return err
	}
	for _, ax := range g.Axes {
		_, isParam := paramAxes[ax.Name]
		if !isParam && !scenarioAxes[ax.Name] {
			return fmt.Errorf("sweep: grid %s: unknown axis %q", g.Name, ax.Name)
		}
		for _, v := range ax.Values {
			if err := checkAxisValue(ax.Name, v); err != nil {
				return fmt.Errorf("sweep: grid %s: %w", g.Name, err)
			}
		}
	}
	return nil
}

// checkAxisValue validates one axis value against its domain.
func checkAxisValue(name string, v grid.Value) error {
	inUnit := func() error {
		if !v.IsNum {
			return fmt.Errorf("axis %q needs a numeric value, got %q", name, v.Str)
		}
		if v.Num <= 0 || v.Num >= 1 {
			return fmt.Errorf("axis %q value %g must be in (0,1)", name, v.Num)
		}
		return nil
	}
	switch name {
	case "topo":
		if v.IsNum || (v.Str != "a" && v.Str != "b") {
			return fmt.Errorf("axis topo value %q must be \"a\" or \"b\"", v.Label())
		}
	case "diff":
		if v.IsNum || (v.Str != "none" && v.Str != "police" && v.Str != "shape") {
			return fmt.Errorf("axis diff value %q must be none, police, or shape", v.Label())
		}
	case "rate", "dfrac", "lossthr":
		return inUnit()
	case "normalize":
		if v.IsNum || (v.Str != "on" && v.Str != "off") {
			return fmt.Errorf("axis normalize value %q must be \"on\" or \"off\"", v.Label())
		}
	case "mingap":
		if !v.IsNum || v.Num <= 0 {
			return fmt.Errorf("axis mingap value %s must be a number > 0", v.Label())
		}
	case "rep":
		if !v.IsNum {
			return fmt.Errorf("axis rep value %q must be numeric", v.Str)
		}
	default:
		// Parameter axis: probe the applier against scratch params.
		p := lab.DefaultParamsA()
		if _, err := lab.ApplyAxisA(&p, name, v); err != nil {
			return err
		}
	}
	return nil
}

// cellSeed derives the cell's seed under the grid's seed mode.
func cellSeed(g *grid.Grid, baseSeed int64, cell int) int64 {
	if g.SeedMode() == grid.SeedFixed {
		return baseSeed
	}
	return runner.Seed(baseSeed, cell)
}

// scenario is a fully materialized cell: the experiment to emulate,
// the network and ground truth to score against, and the inference
// knobs.
type scenario struct {
	exp   *lab.Experiment
	net   *graph.Network
	truth []graph.LinkID
	opts  measure.Options
	cfg   core.Config
}

// materialize builds cell i's scenario. It is a pure function of
// (grid, cell index, seed), which is what makes any cell reproducible
// in isolation.
func materialize(g *grid.Grid, i int, seed int64) (*scenario, error) {
	c := g.Cell(i)
	topo, diff := "a", ""
	rate, dfrac := 0.0, 0.0
	if v, ok := c.Lookup("topo"); ok {
		topo = v.Str
	}
	if v, ok := c.Lookup("diff"); ok {
		diff = v.Str
	}
	if v, ok := c.Lookup("rate"); ok {
		rate = v.Num
	}
	if v, ok := c.Lookup("dfrac"); ok {
		dfrac = v.Num
	}
	if diff == "" {
		if topo == "b" {
			diff = "police"
		} else {
			diff = "none"
		}
	}
	if diff != "none" && rate == 0 {
		return nil, fmt.Errorf("sweep: cell %d: diff=%s needs a rate axis", i, diff)
	}

	sc := &scenario{opts: measure.DefaultOptions(), cfg: core.DefaultConfig()}
	if v, ok := c.Lookup("lossthr"); ok {
		sc.opts.LossThreshold = v.Num
	}
	if v, ok := c.Lookup("normalize"); ok {
		sc.opts.Normalize = v.Str == "on"
	}
	if v, ok := c.Lookup("mingap"); ok {
		sc.cfg.MinGap = v.Num
	}

	name := fmt.Sprintf("%s/cell%d", g.Name, i)
	switch topo {
	case "a":
		p := lab.DefaultParamsA().Scale(g.Base.ScaleFactor, g.Base.DurationSec)
		for a, ax := range g.Axes {
			if _, isParam := paramAxes[ax.Name]; !isParam {
				continue
			}
			if _, err := lab.ApplyAxisA(&p, ax.Name, c.Value(a)); err != nil {
				return nil, fmt.Errorf("sweep: cell %d: %w", i, err)
			}
		}
		if dfrac > 0 {
			p.MeanFlowMb[0] *= 2 * (1 - dfrac)
			p.MeanFlowMb[1] *= 2 * dfrac
		}
		switch diff {
		case "none":
		case "police":
			p.Diff = lab.PoliceClass2(rate)
		case "shape":
			p.Diff = lab.ShapeBothClasses(rate)
		}
		p.Seed = seed
		e, a := p.Experiment(name)
		sc.exp, sc.net = e, a.Net
		if diff != "none" {
			sc.truth = []graph.LinkID{a.Shared}
		}
	case "b":
		if diff != "police" {
			return nil, fmt.Errorf("sweep: cell %d: topology B models its three-policer scenario; declare diff=police, not %s", i, diff)
		}
		p := lab.DefaultParamsB().Scale(g.Base.ScaleFactor, g.Base.DurationSec)
		for a, ax := range g.Axes {
			pa, isParam := paramAxes[ax.Name]
			if !isParam {
				continue
			}
			if !pa.b {
				return nil, fmt.Errorf("sweep: cell %d: axis %q has no topology-B counterpart", i, ax.Name)
			}
			v := c.Value(a)
			switch ax.Name {
			case "rtt":
				p.RTTSec = v.Num
			case "gap":
				p.GapMeanSec = v.Num
			case "interval":
				p.IntervalSec = v.Num
			}
		}
		p.PoliceRate = rate
		if dfrac > 0 {
			p.LightSizesMb = scaleSizes(p.LightSizesMb, 2*dfrac)
			p.DarkSizesMb = scaleSizes(p.DarkSizesMb, 2*(1-dfrac))
			p.WhiteSizesMb = scaleSizes(p.WhiteSizesMb, 2*(1-dfrac))
		}
		p.Seed = seed
		e, b := p.Experiment(name)
		sc.exp, sc.net = e, b.InferenceNet
		sc.truth = b.Policers
	default:
		return nil, fmt.Errorf("sweep: cell %d: unknown topology %q", i, topo)
	}
	return sc, nil
}

func scaleSizes(sizes []float64, f float64) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = s * f
	}
	return out
}

// RunCell emulates and infers cell i of g under the given seed,
// producing its record and the emulation run it scored (whose
// measurements callers may summarize further). It is the one cell
// executor: Run and repair call it with the cell's derived seed, and
// figures that need their own per-cell seeds call it directly. The
// context aborts the emulation mid-run when the caller is interrupted.
func RunCell(ctx context.Context, g *grid.Grid, i int, seed int64) (Record, *lab.Result, error) {
	sc, err := materialize(g, i, seed)
	if err != nil {
		return Record{}, nil, err
	}
	run, err := lab.RunCtx(ctx, sc.exp)
	if err != nil {
		return Record{}, nil, err
	}
	res := core.Infer(sc.net, core.MeasurementObserver{Meas: run.Meas, Opts: sc.opts}, sc.cfg)
	m := core.Evaluate(res, sc.truth)
	rec := Record{
		Cell:        i,
		Seed:        seed,
		Axes:        g.Cell(i).Labels(),
		Verdict:     res.NetworkNonNeutral(),
		FN:          m.FalseNegativeRate,
		FP:          m.FalsePositiveRate,
		Granularity: m.Granularity,
		Detected:    m.Detected,
		Sequences:   len(res.Candidates),
		Events:      run.Sim.Processed,
	}
	// The record's unsolvability is the maximum over candidate
	// sequences — the strongest violation signal. Topology A has a
	// single identifiable sequence, so there it is simply that
	// sequence's unsolvability.
	for _, v := range res.Candidates {
		if v.Unsolvability > rec.Unsolvability {
			rec.Unsolvability = v.Unsolvability
		}
	}
	return rec, run, nil
}
