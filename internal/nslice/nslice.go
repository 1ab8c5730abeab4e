// Package nslice implements Section 4 of the paper: network slices.
//
// To reason about the neutrality of a link sequence τ, the paper builds a
// slice of the network in which τ is the only shared structure:
//
//  1. Θ_τ is assembled from every path pair {p_i, p_j} whose shared links
//     are exactly τ, plus the singleton pathsets of the involved paths.
//  2. The slice graph G_τ is a two-level logical tree: τ maps to one
//     logical link, and for each involved path p_i the links outside τ
//     (σ_i = Links(p_i)\τ) map to one logical link.
//  3. System 4 is y = A_τ(Θ_τ)·x over the logical links.
//
// Lemma 2: if System 4 has no solution, τ is non-neutral. Lemma 3 gives a
// sufficient structural condition for a non-neutral τ to be identifiable.
//
// Each path pair {p_i, p_j} yields a closed-form estimate of τ's
// performance, x̂_τ = y_i + y_j − y_{ij} (the unique solution of the pair's
// 3-equation subsystem); disagreement between pair estimates is exactly
// the unsolvability of System 4 and is the signal Algorithm 1 clusters.
package nslice

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"neutrality/internal/graph"
	"neutrality/internal/matrix"
)

// PathPair is an unordered pair of paths, stored with I < J.
type PathPair struct {
	I, J graph.PathID
}

// Slice is the network slice for one link sequence τ.
type Slice struct {
	// Seq is the shared link sequence τ, sorted by link ID (the shared
	// links of a path pair form a set; order within the sequence does not
	// affect any system of equations).
	Seq []graph.LinkID
	// Pairs are the path pairs whose shared links are exactly τ.
	Pairs []PathPair
	// Paths is the sorted union of the paths appearing in Pairs
	// (the appendix's P_τ).
	Paths []graph.PathID

	net *graph.Network
}

// Key canonicalizes a link sequence for map indexing.
func Key(seq []graph.LinkID) string {
	parts := make([]string, len(seq))
	for i, l := range seq {
		parts[i] = fmt.Sprint(int(l))
	}
	return strings.Join(parts, ",")
}

// Enumerate finds every link sequence τ that is the exact shared-link set
// of at least one path pair, returning the slices sorted by Key. This is
// lines 2–8 of Algorithm 1.
func Enumerate(n *graph.Network) []*Slice {
	byKey := map[string]*Slice{}
	np := n.NumPaths()
	for i := 0; i < np; i++ {
		for j := i + 1; j < np; j++ {
			shared := n.SharedLinks(graph.PathID(i), graph.PathID(j))
			if len(shared) == 0 {
				continue
			}
			sorted := append([]graph.LinkID(nil), shared...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			k := Key(sorted)
			s, ok := byKey[k]
			if !ok {
				s = &Slice{Seq: sorted, net: n}
				byKey[k] = s
			}
			s.Pairs = append(s.Pairs, PathPair{I: graph.PathID(i), J: graph.PathID(j)})
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Slice, 0, len(keys))
	for _, k := range keys {
		s := byKey[k]
		s.Paths = pathUnion(s.Pairs)
		out = append(out, s)
	}
	return out
}

// For builds the slice for an explicit link sequence τ (sorted
// internally). The returned slice has no pairs when no path pair shares
// exactly τ — the paper's non-identifiable case (e.g. l2 in Figure 4).
func For(n *graph.Network, seq []graph.LinkID) *Slice {
	sorted := append([]graph.LinkID(nil), seq...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	want := Key(sorted)
	s := &Slice{Seq: sorted, net: n}
	np := n.NumPaths()
	for i := 0; i < np; i++ {
		for j := i + 1; j < np; j++ {
			shared := n.SharedLinks(graph.PathID(i), graph.PathID(j))
			ss := append([]graph.LinkID(nil), shared...)
			sort.Slice(ss, func(a, b int) bool { return ss[a] < ss[b] })
			if Key(ss) == want {
				s.Pairs = append(s.Pairs, PathPair{I: graph.PathID(i), J: graph.PathID(j)})
			}
		}
	}
	s.Paths = pathUnion(s.Pairs)
	return s
}

func pathUnion(pairs []PathPair) []graph.PathID {
	seen := map[graph.PathID]bool{}
	for _, pr := range pairs {
		seen[pr.I] = true
		seen[pr.J] = true
	}
	out := make([]graph.PathID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pathsets returns Θ_τ: the singleton pathsets of every involved path
// followed by the pair pathsets, in deterministic order. |Θ_τ| >= 5 iff the
// slice has at least two path pairs (Algorithm 1 line 10).
func (s *Slice) Pathsets() []graph.Pathset {
	out := make([]graph.Pathset, 0, len(s.Paths)+len(s.Pairs))
	for _, p := range s.Paths {
		out = append(out, graph.Pathset{p})
	}
	for _, pr := range s.Pairs {
		out = append(out, graph.NewPathset(pr.I, pr.J))
	}
	return out
}

// NumPathsets returns |Θ_τ| without materializing the pathsets.
func (s *Slice) NumPathsets() int { return len(s.Paths) + len(s.Pairs) }

// Identifiable reports whether the slice can support System 4 with at
// least two path pairs — Algorithm 1's admission test (line 10: |Θ_τ| >= 5).
func (s *Slice) Identifiable() bool { return len(s.Pairs) >= 2 }

// LogicalColumns returns the unknowns of System 4 in column order: first
// x_τ, then one x_{σ_i} per involved path (σ_i = Links(p_i) \ τ). Returned
// as display names.
func (s *Slice) LogicalColumns() []string {
	cols := make([]string, 0, 1+len(s.Paths))
	cols = append(cols, "x_tau")
	for _, p := range s.Paths {
		cols = append(cols, fmt.Sprintf("x_sigma(%s)", s.net.Path(p).Name))
	}
	return cols
}

// System builds System 4: the routing matrix A_τ(Θ_τ) over the logical
// links of the slice. Row order matches Pathsets(); column order matches
// LogicalColumns().
func (s *Slice) System() *matrix.Matrix {
	pathIdx := make(map[graph.PathID]int, len(s.Paths))
	for i, p := range s.Paths {
		pathIdx[p] = i
	}
	pss := s.Pathsets()
	m := matrix.New(len(pss), 1+len(s.Paths))
	for r, ps := range pss {
		m.Set(r, 0, 1) // every involved path traverses τ
		for _, p := range ps {
			m.Set(r, 1+pathIdx[p], 1)
		}
	}
	return m
}

// Observations maps a pathset-performance lookup to the right-hand side of
// System 4, in Pathsets() row order. The lookup receives canonical
// pathsets.
func (s *Slice) Observations(y func(graph.Pathset) float64) []float64 {
	pss := s.Pathsets()
	out := make([]float64, len(pss))
	for i, ps := range pss {
		out[i] = y(ps)
	}
	return out
}

// ConsistentExact reports whether System 4 admits an exact solution with
// non-negative performance numbers (Lemma 2's hypothesis; see
// matrix.ConsistentNonneg for why non-negativity is the right domain).
// tol <= 0 uses a scale-aware default.
func (s *Slice) ConsistentExact(y func(graph.Pathset) float64, tol float64) bool {
	return matrix.ConsistentNonneg(s.System(), s.Observations(y), tol)
}

// PairEstimate is one path pair's estimate of τ's performance number.
type PairEstimate struct {
	Pair PathPair
	// X is x̂_τ = y_i + y_j − y_{ij} (Equation 14), projected onto the
	// feasible region [0, min(y_i, y_j)]: any consistent non-negative
	// solution of the pair's subsystem satisfies those bounds, so
	// measurement noise outside them (e.g. y_ij > y_i + y_j from rare
	// anti-correlated samples) is clipped rather than counted as
	// unsolvability.
	X float64
	// Raw is the unprojected estimate, for diagnostics.
	Raw float64
	// SameClass is true when both paths belong to the same performance
	// class, and Class is that class (otherwise Class is the invalid -1).
	// Per Lemma 3's proof, a same-class pair estimates x̂_τ(n) for its
	// class n, while a mixed pair estimates x̂_τ(n*) for the top-priority
	// class.
	SameClass bool
	Class     graph.ClassID
}

// PairEstimates computes every path pair's estimate of x_τ.
func (s *Slice) PairEstimates(y func(graph.Pathset) float64) []PairEstimate {
	out := make([]PairEstimate, 0, len(s.Pairs))
	for _, pr := range s.Pairs {
		yi := y(graph.Pathset{pr.I})
		yj := y(graph.Pathset{pr.J})
		yij := y(graph.NewPathset(pr.I, pr.J))
		raw := yi + yj - yij
		x := raw
		if hi := math.Min(yi, yj); x > hi {
			x = hi
		}
		if x < 0 {
			x = 0
		}
		e := PairEstimate{Pair: pr, X: x, Raw: raw, Class: -1}
		ci, cj := s.net.ClassOf(pr.I), s.net.ClassOf(pr.J)
		if ci == cj {
			e.SameClass, e.Class = true, ci
		}
		out = append(out, e)
	}
	return out
}

// Unsolvability is the paper's practical score for "System 4 has no
// solution": the absolute difference between the largest and smallest pair
// estimates of x_τ (Section 6.2). Zero when fewer than two pairs exist.
func Unsolvability(estimates []PairEstimate) float64 {
	if len(estimates) < 2 {
		return 0
	}
	lo, hi := estimates[0].X, estimates[0].X
	for _, e := range estimates[1:] {
		if e.X < lo {
			lo = e.X
		}
		if e.X > hi {
			hi = e.X
		}
	}
	return hi - lo
}

// Lemma3Witness is a pair of pathset indices witnessing Lemma 3's
// identifiability condition.
type Lemma3Witness struct {
	// LowerClass is the lower-priority class c_n with θ_i ⊆ c_n, θ_j ⊄ c_n.
	LowerClass graph.ClassID
	In, NotIn  PathPair
}

// Lemma3 checks the sufficient identifiability condition of Lemma 3 for a
// non-neutral τ whose top-priority class is top: there must exist two path
// pairs and a lower-priority class c_n such that one pair lies entirely in
// c_n and the other does not.
func (s *Slice) Lemma3(top graph.ClassID) (Lemma3Witness, bool) {
	for c := graph.ClassID(0); int(c) < s.net.NumClasses(); c++ {
		if c == top {
			continue
		}
		var in, notIn []PathPair
		for _, pr := range s.Pairs {
			if s.net.ClassOf(pr.I) == c && s.net.ClassOf(pr.J) == c {
				in = append(in, pr)
			} else {
				notIn = append(notIn, pr)
			}
		}
		if len(in) > 0 && len(notIn) > 0 {
			return Lemma3Witness{LowerClass: c, In: in[0], NotIn: notIn[0]}, true
		}
	}
	return Lemma3Witness{}, false
}

// SeqNames renders τ as the paper's ⟨l…⟩ notation.
func (s *Slice) SeqNames() string {
	parts := make([]string, len(s.Seq))
	for i, l := range s.Seq {
		parts[i] = s.net.Link(l).Name
	}
	return "<" + strings.Join(parts, ",") + ">"
}
