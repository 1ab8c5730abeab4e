package neutrality

import "neutrality/internal/tomo"

// Baseline algorithms the paper positions itself against (Section 8).

type (
	// BoolTomographyResult is the outcome of Boolean network tomography.
	BoolTomographyResult = tomo.BoolResult
	// LossTomographyResult is the outcome of least-squares loss
	// tomography.
	LossTomographyResult = tomo.LossResult
)

// BooleanTomography locates congested links per interval under the
// neutral assumption (Nguyen–Thiran style). On a non-neutral network it
// misattributes or fails to explain congestion — the paper's motivation.
func BooleanTomography(n *Network, states [][]bool) *BoolTomographyResult {
	return tomo.Boolean(n, states)
}

// LossTomography fits the neutral linear model y = A·x by least squares;
// the residual is a network-level inconsistency signal.
func LossTomography(n *Network, pathsets []Pathset, y []float64) *LossTomographyResult {
	return tomo.LeastSquares(n, pathsets, y)
}
