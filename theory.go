package neutrality

import (
	"neutrality/internal/matrix"
	"neutrality/internal/neutral"
	"neutrality/internal/nslice"
	"neutrality/internal/routing"
)

// Theory API: the constructs of Sections 3–4 of the paper.

type (
	// VirtualLink is a link of G⁺.
	VirtualLink = neutral.VirtualLink
	// Witness is a virtual link satisfying Theorem 1's observability
	// condition.
	Witness = neutral.Witness
	// Slice is the network slice of a link sequence τ (Section 4.1).
	Slice = nslice.Slice
	// PathPair is an unordered pair of paths.
	PathPair = nslice.PathPair
	// PairEstimate is one path pair's estimate of x_τ.
	PairEstimate = nslice.PairEstimate
	// Lemma3Witness certifies identifiability per Lemma 3.
	Lemma3Witness = nslice.Lemma3Witness
	// Matrix is a dense matrix (routing matrices, systems of equations).
	Matrix = matrix.Matrix
)

// Observable applies Theorem 1: it returns the witnesses — virtual links
// of G⁺ distinguishable from every link of G — that make the violation
// observable. Empty means the violation (if any) cannot be detected from
// external observations.
func Observable(n *Network, perf Perf) []Witness { return neutral.Observable(n, perf) }

// ObservableStructural asks whether differentiation at the given links
// could ever be observed, assuming every class gap is non-zero. It depends
// only on topology, paths, and class structure.
func ObservableStructural(n *Network, nonNeutral []LinkID) []Witness {
	return neutral.ObservableStructural(n, nonNeutral)
}

// Slices enumerates every link sequence that is the exact shared-link set
// of at least one path pair (Algorithm 1, lines 2–8).
func Slices(n *Network) []*Slice { return nslice.Enumerate(n) }

// RoutingMatrix builds the generalized routing matrix A(Θ) over the given
// pathsets (Section 2.3).
func RoutingMatrix(n *Network, pathsets []Pathset) *Matrix {
	return routing.Matrix(n, pathsets)
}

// ConsistentNonneg reports whether A·x = y admits a solution with x >= 0 —
// the paper's operative notion of "the system has a solution", since
// performance numbers −log P are non-negative.
func ConsistentNonneg(a *Matrix, y []float64, tol float64) bool {
	return matrix.ConsistentNonneg(a, y, tol)
}

// PowerSetPathsets enumerates P* for small networks (theory experiments).
func PowerSetPathsets(n *Network) []Pathset { return n.PowerSetPathsets() }
