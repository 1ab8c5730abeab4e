package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Pathset is a set of paths (the paper's θ). Pathsets are the unit of
// external observation: the performance number of a pathset θ is
// y_θ = −log P(all paths in θ congestion-free in an interval).
//
// Pathsets are stored as sorted path-ID slices so they can be compared and
// used as map keys via Key().
type Pathset []PathID

// NewPathset returns the canonical (sorted, deduplicated) pathset over the
// given paths.
func NewPathset(paths ...PathID) Pathset {
	cp := append(Pathset(nil), paths...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:0]
	for i, p := range cp {
		if i == 0 || p != cp[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// Key returns a canonical string usable as a map key.
func (ps Pathset) Key() string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprint(int(p))
	}
	return strings.Join(parts, ",")
}

// Contains reports whether path p is a member.
func (ps Pathset) Contains(p PathID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// Equal reports element-wise equality (both sides canonical).
func (ps Pathset) Equal(o Pathset) bool {
	if len(ps) != len(o) {
		return false
	}
	for i := range ps {
		if ps[i] != o[i] {
			return false
		}
	}
	return true
}

// Links returns Links(θ): the set of links traversed by at least one member
// path.
func (n *Network) Links(ps Pathset) LinkSet {
	s := NewLinkSet()
	for _, p := range ps {
		for _, l := range n.paths[p].Links {
			s.Add(l)
		}
	}
	return s
}

// EntirelyInClass reports whether every path of θ belongs to class c
// (the paper's θ ⊆ c_n).
func (n *Network) EntirelyInClass(ps Pathset, c ClassID) bool {
	for _, p := range ps {
		if n.classOf[p] != c {
			return false
		}
	}
	return true
}

// SingletonPathsets returns {{p} | p in P}.
func (n *Network) SingletonPathsets() []Pathset {
	out := make([]Pathset, len(n.paths))
	for i := range n.paths {
		out[i] = Pathset{PathID(i)}
	}
	return out
}

// PowerSetPathsets enumerates every non-empty pathset of the network (the
// paper's P*), in deterministic order. It panics if |P| > 20 to avoid
// accidental exponential blowups; the theory API only needs P* for small
// illustrative networks, and Theorem 1's proof uses Θ = P* as a witness,
// not as an algorithmic step.
func (n *Network) PowerSetPathsets() []Pathset {
	if len(n.paths) > 20 {
		panic(fmt.Sprintf("graph: refusing to enumerate 2^%d pathsets", len(n.paths)))
	}
	total := 1 << len(n.paths)
	out := make([]Pathset, 0, total-1)
	for mask := 1; mask < total; mask++ {
		var ps Pathset
		for i := 0; i < len(n.paths); i++ {
			if mask&(1<<i) != 0 {
				ps = append(ps, PathID(i))
			}
		}
		out = append(out, ps)
	}
	return out
}

// Perf holds the ground-truth performance numbers of every link, per class:
// Perf[l][c] = x_l(c) = −log P(link l congestion-free for class c).
// A neutral link has identical values across classes.
type Perf [][]float64

// NewPerf allocates an all-zero (always congestion-free) performance table.
func NewPerf(links, classes int) Perf {
	p := make(Perf, links)
	for i := range p {
		p[i] = make([]float64, classes)
	}
	return p
}

// SetNeutral assigns the same performance number x to every class of link l.
func (p Perf) SetNeutral(l LinkID, x float64) {
	for c := range p[l] {
		p[l][c] = x
	}
}

// Set assigns the performance number of link l for class c.
func (p Perf) Set(l LinkID, c ClassID, x float64) { p[l][c] = x }

// IsNeutral reports whether link l has the same performance number for every
// class (within tol).
func (p Perf) IsNeutral(l LinkID, tol float64) bool {
	for c := 1; c < len(p[l]); c++ {
		d := p[l][c] - p[l][0]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

// NonNeutralLinks returns the IDs of links with class-dependent performance.
func (p Perf) NonNeutralLinks(tol float64) []LinkID {
	var out []LinkID
	for l := range p {
		if !p.IsNeutral(LinkID(l), tol) {
			out = append(out, LinkID(l))
		}
	}
	return out
}

// TopPriorityClass returns the class with the best (lowest) performance
// number of link l — the paper's c_{n*}. Ties resolve to the lowest class ID.
func (p Perf) TopPriorityClass(l LinkID) ClassID {
	best := 0
	for c := 1; c < len(p[l]); c++ {
		if p[l][c] < p[l][best] {
			best = c
		}
	}
	return ClassID(best)
}

// SeqPerf returns the performance numbers of a link sequence for each class:
// x̂_τ(n) = Σ_{l∈τ} x_l(n) (Equation 1).
func (p Perf) SeqPerf(seq []LinkID) []float64 {
	if len(p) == 0 {
		return nil
	}
	out := make([]float64, len(p[0]))
	for _, l := range seq {
		for c := range out {
			out[c] += p[l][c]
		}
	}
	return out
}

// Clone returns a deep copy.
func (p Perf) Clone() Perf {
	q := make(Perf, len(p))
	for i := range p {
		q[i] = append([]float64(nil), p[i]...)
	}
	return q
}
