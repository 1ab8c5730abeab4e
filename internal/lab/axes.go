package lab

import (
	"fmt"
	"math"

	"neutrality/internal/grid"
)

// Scenario-grid axis names for the topology-A parameter knobs. These
// are the shared vocabulary between the declarative grid specs
// (internal/grid), the experiment definitions in this package
// (TableTwoGrid is expressed with them), and the sweep engine
// (internal/sweep), which layers its own topology/differentiation/
// inference axes on top.
//
// Every applier sets the knob to the axis value verbatim — values are
// absolute, in the units documented on ParamsA; no rescaling happens
// here.

// ApplyAxisA applies one named grid axis to the topology-A parameters.
// It reports whether the axis names a ParamsA knob at all; unknown
// axes return (false, nil) so callers can layer additional axes on
// top. A known axis with an out-of-domain value returns an error.
func ApplyAxisA(p *ParamsA, name string, v grid.Value) (bool, error) {
	num := func() (float64, error) {
		if !v.IsNum {
			return 0, fmt.Errorf("lab: axis %q needs a numeric value, got %q", name, v.Str)
		}
		return v.Num, nil
	}
	positive := func() (float64, error) {
		f, err := num()
		if err == nil && f <= 0 {
			return 0, fmt.Errorf("lab: axis %q value %g must be > 0", name, f)
		}
		return f, err
	}
	cca := func() (string, error) {
		if v.IsNum {
			return "", fmt.Errorf("lab: axis %q needs a string value", name)
		}
		switch v.Str {
		case "cubic", "newreno":
			return v.Str, nil
		}
		return "", fmt.Errorf("lab: axis %q: unknown congestion controller %q", name, v.Str)
	}

	switch name {
	case "flows":
		f, err := num()
		if err != nil {
			return true, err
		}
		if f < 1 || f != math.Trunc(f) {
			return true, fmt.Errorf("lab: axis %q value %g must be a positive integer", name, f)
		}
		p.FlowsPerPath = int(f)
	case "rtt":
		f, err := positive()
		if err != nil {
			return true, err
		}
		p.RTTSec = [2]float64{f, f}
	case "c2rtt":
		f, err := positive()
		if err != nil {
			return true, err
		}
		p.RTTSec[1] = f
	case "flowmb":
		f, err := positive()
		if err != nil {
			return true, err
		}
		p.MeanFlowMb = [2]float64{f, f}
	case "c1mb":
		f, err := positive()
		if err != nil {
			return true, err
		}
		p.MeanFlowMb[0] = f
	case "c2mb":
		f, err := positive()
		if err != nil {
			return true, err
		}
		p.MeanFlowMb[1] = f
	case "cca":
		s, err := cca()
		if err != nil {
			return true, err
		}
		p.CCA = [2]string{s, s}
	case "c2cca":
		s, err := cca()
		if err != nil {
			return true, err
		}
		p.CCA[1] = s
	case "gap":
		f, err := num()
		if err != nil {
			return true, err
		}
		if f < 0 {
			return true, fmt.Errorf("lab: axis %q value %g must be >= 0", name, f)
		}
		p.GapMeanSec = f
	case "interval":
		f, err := positive()
		if err != nil {
			return true, err
		}
		p.IntervalSec = f
	default:
		return false, nil
	}
	return true, nil
}
