package sweep

import (
	"encoding/json"
	"fmt"
	"math"

	"neutrality/internal/grid"
)

// Aggregate wire form. A fleet worker ships its partition's Agg to the
// orchestrator as one JSON document with its completion, so a running
// fleet can serve the merged-so-far Summary before it commits.
// The encoding is exact: encoding/json renders float64 with the
// shortest round-tripping representation, so a decode of an encode
// reproduces the aggregate bit for bit — Summary output included.
// DecodeAgg validates every structural invariant a consumer relies on,
// because the bytes cross a network: a corrupt or hostile document
// fails with an error instead of poisoning the merged summary.

type welfordWire struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// WelfordWire and SketchWire are the exported wire forms of the two
// streaming accumulators, for other durable-state writers (the serve
// snapshot embeds both in its checkpoint document). The encoding is
// the same exact float64 JSON the aggregate transport uses, so a
// decode of an encode reproduces the accumulator bit for bit.
type (
	WelfordWire = welfordWire
	SketchWire  = sketchWire
)

// WireWelford renders an accumulator as its wire form.
func WireWelford(w Welford) WelfordWire { return w.wire() }

// CheckWelford rebuilds an accumulator from its wire form, validating
// every structural invariant (the bytes may cross a disk or a network).
func CheckWelford(w WelfordWire, name string) (Welford, error) { return w.check(name) }

// WireSketch renders a sketch as its wire form.
func WireSketch(s *Sketch) SketchWire { return s.wire() }

// CheckSketch rebuilds a sketch from its wire form, validating bin
// structure and extremes; squash pins the expected transform.
func CheckSketch(w SketchWire, name string, squash bool) (*Sketch, error) {
	return w.check(name, squash)
}

func (w *Welford) wire() welfordWire { return welfordWire{N: w.N, Mean: w.Mean, M2: w.m2} }

func (w welfordWire) check(name string) (Welford, error) {
	if w.N < 0 {
		return Welford{}, fmt.Errorf("%s: negative count %d", name, w.N)
	}
	if w.N == 0 && (w.Mean != 0 || w.M2 != 0) {
		return Welford{}, fmt.Errorf("%s: empty accumulator with non-zero moments", name)
	}
	if math.IsNaN(w.Mean) || math.IsInf(w.Mean, 0) || math.IsNaN(w.M2) || math.IsInf(w.M2, 0) || w.M2 < 0 {
		return Welford{}, fmt.Errorf("%s: moments out of domain (mean=%v m2=%v)", name, w.Mean, w.M2)
	}
	return Welford{N: w.N, Mean: w.Mean, m2: w.M2}, nil
}

type sketchWire struct {
	Bins   []int   `json:"bins,omitempty"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Squash bool    `json:"squash"`
}

func (s *Sketch) wire() sketchWire {
	w := sketchWire{N: s.n, Min: s.min, Max: s.max, Squash: s.squash}
	// Bins are emitted sparsely as (index, count) pairs flattened into
	// one list — most cells of a 256-bin sketch are empty.
	for b, c := range s.bins {
		if c != 0 {
			w.Bins = append(w.Bins, b, c)
		}
	}
	return w
}

func (w sketchWire) check(name string, squash bool) (*Sketch, error) {
	if w.Squash != squash {
		return nil, fmt.Errorf("%s: wrong sketch transform", name)
	}
	if w.N < 0 {
		return nil, fmt.Errorf("%s: negative count %d", name, w.N)
	}
	if len(w.Bins)%2 != 0 {
		return nil, fmt.Errorf("%s: odd sparse bin list length %d", name, len(w.Bins))
	}
	s := &Sketch{n: w.N, min: w.Min, max: w.Max, squash: w.Squash}
	sum := 0
	for i := 0; i < len(w.Bins); i += 2 {
		b, c := w.Bins[i], w.Bins[i+1]
		if b < 0 || b >= sketchBins {
			return nil, fmt.Errorf("%s: bin index %d outside [0,%d)", name, b, sketchBins)
		}
		if c <= 0 || s.bins[b] != 0 {
			return nil, fmt.Errorf("%s: bin %d count %d invalid or duplicated", name, b, c)
		}
		s.bins[b] = c
		sum += c
	}
	if sum != w.N {
		return nil, fmt.Errorf("%s: bins hold %d observations, header says %d", name, sum, w.N)
	}
	if math.IsNaN(w.Min) || math.IsNaN(w.Max) || (w.N > 0 && w.Min > w.Max) {
		return nil, fmt.Errorf("%s: min/max out of order (%v, %v)", name, w.Min, w.Max)
	}
	if w.N == 0 && (w.Min != 0 || w.Max != 0) {
		return nil, fmt.Errorf("%s: empty sketch with non-zero extremes", name)
	}
	return s, nil
}

type metricWire struct {
	Cells      int         `json:"cells"`
	NonNeutral int         `json:"non_neutral"`
	FN         welfordWire `json:"fn"`
	FP         welfordWire `json:"fp"`
	Gran       welfordWire `json:"gran"`
	Unsolv     welfordWire `json:"unsolv"`
	UnsolvSk   sketchWire  `json:"unsolv_sk"`
	Events     uint64      `json:"events"`
}

func (a *metricAgg) wire() metricWire {
	return metricWire{
		Cells: a.cells, NonNeutral: a.nonNeutral,
		FN: a.fn.wire(), FP: a.fp.wire(), Gran: a.gran.wire(), Unsolv: a.unsolv.wire(),
		UnsolvSk: a.unsolvSk.wire(), Events: a.events,
	}
}

func (w metricWire) check(name string) (*metricAgg, error) {
	if w.Cells < 0 || w.NonNeutral < 0 || w.NonNeutral > w.Cells {
		return nil, fmt.Errorf("%s: verdict counts %d/%d out of order", name, w.NonNeutral, w.Cells)
	}
	a := &metricAgg{cells: w.Cells, nonNeutral: w.NonNeutral, events: w.Events}
	var err error
	for _, f := range []struct {
		dst  *Welford
		wire welfordWire
		name string
	}{
		{&a.fn, w.FN, name + ".fn"}, {&a.fp, w.FP, name + ".fp"},
		{&a.gran, w.Gran, name + ".gran"}, {&a.unsolv, w.Unsolv, name + ".unsolv"},
	} {
		if *f.dst, err = f.wire.check(f.name); err != nil {
			return nil, err
		}
		if f.dst.N != w.Cells {
			return nil, fmt.Errorf("%s: %d observations for %d cells", f.name, f.dst.N, w.Cells)
		}
	}
	if a.unsolvSk, err = w.UnsolvSk.check(name+".unsolv_sk", true); err != nil {
		return nil, err
	}
	if a.unsolvSk.n != w.Cells {
		return nil, fmt.Errorf("%s.unsolv_sk: %d observations for %d cells", name, a.unsolvSk.n, w.Cells)
	}
	return a, nil
}

type aggWire struct {
	Fingerprint string         `json:"fingerprint"`
	Global      metricWire     `json:"global"`
	Slices      [][]metricWire `json:"slices"`
}

// EncodeAgg renders the aggregate as its JSON wire form.
func EncodeAgg(a *Agg) ([]byte, error) {
	w := aggWire{Fingerprint: a.g.Fingerprint(), Global: a.global.wire()}
	for _, row := range a.slices {
		wr := make([]metricWire, len(row))
		for i, m := range row {
			wr[i] = m.wire()
		}
		w.Slices = append(w.Slices, wr)
	}
	return json.Marshal(w)
}

// DecodeAgg rebuilds an aggregate for grid g from its wire form,
// validating the fingerprint, the slice shape against the grid, and
// every accumulator invariant. The result is bit-identical to the
// encoded aggregate, so Summary output survives the round trip byte
// for byte.
func DecodeAgg(g *grid.Grid, data []byte) (*Agg, error) {
	var w aggWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("sweep: aggregate: %w", err)
	}
	if w.Fingerprint != g.Fingerprint() {
		return nil, errKind(ErrValidation, "sweep: aggregate was recorded for fingerprint %.12s…, not this spec (%.12s…)",
			w.Fingerprint, g.Fingerprint())
	}
	if len(w.Slices) != len(g.Axes) {
		return nil, errKind(ErrValidation, "sweep: aggregate has %d axis slices, grid %s has %d axes", len(w.Slices), g.Name, len(g.Axes))
	}
	a := &Agg{g: g}
	var err error
	if a.global, err = w.Global.check("global"); err != nil {
		return nil, errKind(ErrValidation, "sweep: aggregate: %w", err)
	}
	for ax, row := range w.Slices {
		if len(row) != len(g.Axes[ax].Values) {
			return nil, errKind(ErrValidation, "sweep: aggregate axis %q has %d value slices, grid has %d",
				g.Axes[ax].Name, len(row), len(g.Axes[ax].Values))
		}
		cells := 0
		out := make([]*metricAgg, len(row))
		for v, mw := range row {
			m, err := mw.check(fmt.Sprintf("axis %q value %d", g.Axes[ax].Name, v))
			if err != nil {
				return nil, errKind(ErrValidation, "sweep: aggregate: %w", err)
			}
			out[v] = m
			cells += m.cells
		}
		if cells != a.global.cells {
			return nil, errKind(ErrValidation, "sweep: aggregate axis %q slices cover %d cells, global has %d",
				g.Axes[ax].Name, cells, a.global.cells)
		}
		a.slices = append(a.slices, out)
	}
	return a, nil
}
