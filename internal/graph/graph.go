// Package graph implements the network model of Zhang et al., "Network
// Neutrality Inference" (SIGCOMM 2014), Section 2.3: a network is a tuple
// G = (V, L, P) of nodes, links, and loop-free end-to-end paths, together
// with a partition of the paths into performance classes. A link is neutral
// when it offers the same performance number to every class, and non-neutral
// otherwise.
//
// The package provides the helper functions the paper uses throughout its
// analysis — Paths(l), Links(p), Links(θ), link distinguishability — plus
// validation and construction utilities used by every other package in this
// repository.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node (end-host or relay) in the network graph.
type NodeID int

// LinkID identifies a link. Links are indexed 0..|L|-1 in the arbitrary but
// fixed ordering the paper calls l_k.
type LinkID int

// PathID identifies a path. Paths are indexed 0..|P|-1 (the paper's p_i).
type PathID int

// ClassID identifies a performance class (the paper's c_n), 0..|C|-1.
type ClassID int

// NodeKind distinguishes the two kinds of nodes in the model.
type NodeKind int

const (
	// EndHost nodes originate and terminate paths.
	EndHost NodeKind = iota
	// Relay nodes are intermediate elements (switches, routers).
	Relay
)

// Node is a vertex of the network graph.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// Link is an edge of the network graph. A link may correspond to an IP-level
// link, a domain-level link, or a sequence of consecutive physical links
// (paper assumption #1).
type Link struct {
	ID   LinkID
	Name string
	// From and To are the endpoints. The model treats links as traversed
	// in the From->To direction by the paths that include them.
	From, To NodeID
}

// Path is a loop-free sequence of consecutive links starting and ending at
// end-hosts.
type Path struct {
	ID    PathID
	Name  string
	Links []LinkID // in traversal order
}

// Network is the paper's G = (V, L, P) plus the set of performance classes C.
// Class membership is recorded per path; a network with a single class is by
// definition neutral (Section 2.3).
type Network struct {
	nodes []Node
	links []Link
	paths []Path

	// classOf[p] is the performance class of path p. Classes partition P.
	classOf []ClassID
	classes int

	// pathsThrough[l] caches Paths(l) as a sorted list of path IDs.
	pathsThrough [][]PathID
}

// Builder incrementally assembles a Network. The zero value is ready to use.
type Builder struct {
	nodes   []Node
	links   []Link
	paths   []Path
	classOf []ClassID
	nodeIdx map[string]NodeID
	linkIdx map[string]LinkID
	err     error
}

// NewBuilder returns an empty network builder.
func NewBuilder() *Builder {
	return &Builder{
		nodeIdx: make(map[string]NodeID),
		linkIdx: make(map[string]LinkID),
	}
}

// Node adds (or returns the existing) node with the given name.
func (b *Builder) Node(name string, kind NodeKind) NodeID {
	if id, ok := b.nodeIdx[name]; ok {
		return id
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Name: name, Kind: kind})
	b.nodeIdx[name] = id
	return id
}

// Host adds (or returns) an end-host node.
func (b *Builder) Host(name string) NodeID { return b.Node(name, EndHost) }

// Relay adds (or returns) a relay node.
func (b *Builder) Relay(name string) NodeID { return b.Node(name, Relay) }

// Link adds a named link between two existing nodes and returns its ID.
// Adding a link with a name already in use records an error surfaced by
// Build.
func (b *Builder) Link(name string, from, to NodeID) LinkID {
	if _, dup := b.linkIdx[name]; dup {
		b.fail(fmt.Errorf("graph: duplicate link name %q", name))
	}
	if int(from) >= len(b.nodes) || int(to) >= len(b.nodes) || from < 0 || to < 0 {
		b.fail(fmt.Errorf("graph: link %q references unknown node", name))
	}
	id := LinkID(len(b.links))
	b.links = append(b.links, Link{ID: id, Name: name, From: from, To: to})
	b.linkIdx[name] = id
	return id
}

// Path adds a path through the given links (by name), assigned to class.
// The links must form a connected chain; the first link must start and the
// last link must end at an end-host.
func (b *Builder) Path(name string, class ClassID, linkNames ...string) PathID {
	ids := make([]LinkID, 0, len(linkNames))
	for _, ln := range linkNames {
		id, ok := b.linkIdx[ln]
		if !ok {
			b.fail(fmt.Errorf("graph: path %q references unknown link %q", name, ln))
			return -1
		}
		ids = append(ids, id)
	}
	return b.PathIDs(name, class, ids...)
}

// PathIDs adds a path through the given links (by ID), assigned to class.
func (b *Builder) PathIDs(name string, class ClassID, links ...LinkID) PathID {
	if len(links) == 0 {
		b.fail(fmt.Errorf("graph: path %q has no links", name))
		return -1
	}
	if class < 0 {
		b.fail(fmt.Errorf("graph: path %q has negative class %d", name, class))
		return -1
	}
	id := PathID(len(b.paths))
	cp := make([]LinkID, len(links))
	copy(cp, links)
	b.paths = append(b.paths, Path{ID: id, Name: name, Links: cp})
	b.classOf = append(b.classOf, class)
	return id
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates the accumulated definition and returns the Network.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := &Network{
		nodes:   append([]Node(nil), b.nodes...),
		links:   append([]Link(nil), b.links...),
		paths:   append([]Path(nil), b.paths...),
		classOf: append([]ClassID(nil), b.classOf...),
	}
	// Classes are the set of distinct class IDs used; require them to be
	// contiguous starting at 0 so they can index arrays.
	maxClass := ClassID(-1)
	seen := map[ClassID]bool{}
	for _, c := range n.classOf {
		seen[c] = true
		if c > maxClass {
			maxClass = c
		}
	}
	for c := ClassID(0); c <= maxClass; c++ {
		if !seen[c] {
			return nil, fmt.Errorf("graph: performance classes must be contiguous: class %d unused but class %d exists", c, maxClass)
		}
	}
	n.classes = int(maxClass) + 1
	if n.classes == 0 && len(n.paths) > 0 {
		return nil, fmt.Errorf("graph: paths exist but no classes assigned")
	}

	for _, p := range n.paths {
		if err := n.validatePath(p); err != nil {
			return nil, err
		}
	}
	n.pathsThrough = make([][]PathID, len(n.links))
	for _, p := range n.paths {
		for _, l := range p.Links {
			n.pathsThrough[l] = append(n.pathsThrough[l], p.ID)
		}
	}
	return n, nil
}

// MustBuild is Build that panics on error; for tests and fixed topologies.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

func (n *Network) validatePath(p Path) error {
	// Consecutive links must chain From->To.
	for i := 1; i < len(p.Links); i++ {
		prev, cur := n.links[p.Links[i-1]], n.links[p.Links[i]]
		if prev.To != cur.From {
			return fmt.Errorf("graph: path %q: link %q (to node %d) does not connect to link %q (from node %d)",
				p.Name, prev.Name, prev.To, cur.Name, cur.From)
		}
	}
	first, last := n.links[p.Links[0]], n.links[p.Links[len(p.Links)-1]]
	if n.nodes[first.From].Kind != EndHost {
		return fmt.Errorf("graph: path %q does not start at an end-host", p.Name)
	}
	if n.nodes[last.To].Kind != EndHost {
		return fmt.Errorf("graph: path %q does not end at an end-host", p.Name)
	}
	// Loop-free: no node visited twice.
	visited := map[NodeID]bool{first.From: true}
	for _, l := range p.Links {
		to := n.links[l].To
		if visited[to] {
			return fmt.Errorf("graph: path %q visits node %d twice (not loop-free)", p.Name, to)
		}
		visited[to] = true
	}
	return nil
}

// NumNodes returns |V|.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks returns |L|.
func (n *Network) NumLinks() int { return len(n.links) }

// NumPaths returns |P|.
func (n *Network) NumPaths() int { return len(n.paths) }

// NumClasses returns |C|.
func (n *Network) NumClasses() int { return n.classes }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) Link { return n.links[id] }

// Path returns the path with the given ID.
func (n *Network) Path(id PathID) Path { return n.paths[id] }

// ClassOf returns the performance class of path p.
func (n *Network) ClassOf(p PathID) ClassID { return n.classOf[p] }

// LinkByName returns the link with the given name.
func (n *Network) LinkByName(name string) (Link, bool) {
	for _, l := range n.links {
		if l.Name == name {
			return l, true
		}
	}
	return Link{}, false
}

// PathByName returns the path with the given name.
func (n *Network) PathByName(name string) (Path, bool) {
	for _, p := range n.paths {
		if p.Name == name {
			return p, true
		}
	}
	return Path{}, false
}

// PathsThrough returns Paths(l): the IDs of all paths that traverse link l,
// in ascending order. The returned slice is shared; callers must not modify
// it.
func (n *Network) PathsThrough(l LinkID) []PathID { return n.pathsThrough[l] }

// LinksOf returns Links(p) as a set.
func (n *Network) LinksOf(p PathID) LinkSet {
	s := NewLinkSet()
	for _, l := range n.paths[p].Links {
		s.Add(l)
	}
	return s
}

// PathsThroughSeq returns Paths(τ): the paths that traverse every link of the
// sequence τ.
func (n *Network) PathsThroughSeq(seq []LinkID) []PathID {
	if len(seq) == 0 {
		return nil
	}
	var out []PathID
	for _, p := range n.pathsThrough[seq[0]] {
		all := true
		ls := n.LinksOf(p)
		for _, l := range seq[1:] {
			if !ls.Contains(l) {
				all = false
				break
			}
		}
		if all {
			out = append(out, p)
		}
	}
	return out
}

// Distinguishable reports whether links a and b are distinguishable, i.e.
// Paths(a) != Paths(b) (Section 2.3).
func (n *Network) Distinguishable(a, b LinkID) bool {
	pa, pb := n.pathsThrough[a], n.pathsThrough[b]
	if len(pa) != len(pb) {
		return true
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return true
		}
	}
	return false
}

// SharedLinks returns Links(p_i) ∩ Links(p_j) in path-i traversal order.
func (n *Network) SharedLinks(i, j PathID) []LinkID {
	lj := n.LinksOf(j)
	var out []LinkID
	for _, l := range n.paths[i].Links {
		if lj.Contains(l) {
			out = append(out, l)
		}
	}
	return out
}

// ClassMembers returns the paths belonging to class c, ascending.
func (n *Network) ClassMembers(c ClassID) []PathID {
	var out []PathID
	for p, pc := range n.classOf {
		if pc == c {
			out = append(out, PathID(p))
		}
	}
	return out
}

// String renders a short human-readable summary.
func (n *Network) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Network{%d nodes, %d links, %d paths, %d classes}", len(n.nodes), len(n.links), len(n.paths), n.classes)
	return sb.String()
}

// Describe renders a full multi-line description (links, paths, classes).
func (n *Network) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", n.String())
	for _, l := range n.links {
		fmt.Fprintf(&sb, "  link %-6s %s -> %s  Paths=%v\n", l.Name, n.nodes[l.From].Name, n.nodes[l.To].Name, n.pathNames(n.pathsThrough[l.ID]))
	}
	for _, p := range n.paths {
		names := make([]string, len(p.Links))
		for i, l := range p.Links {
			names[i] = n.links[l].Name
		}
		fmt.Fprintf(&sb, "  path %-6s class=%d links=%s\n", p.Name, n.classOf[p.ID], strings.Join(names, ","))
	}
	return sb.String()
}

func (n *Network) pathNames(ids []PathID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = n.paths[id].Name
	}
	return out
}

// LinkSet is a set of link IDs.
type LinkSet struct {
	m map[LinkID]struct{}
}

// NewLinkSet returns an empty LinkSet, optionally seeded with links.
func NewLinkSet(links ...LinkID) LinkSet {
	s := LinkSet{m: make(map[LinkID]struct{}, len(links))}
	for _, l := range links {
		s.Add(l)
	}
	return s
}

// Add inserts l into the set.
func (s LinkSet) Add(l LinkID) { s.m[l] = struct{}{} }

// Contains reports membership.
func (s LinkSet) Contains(l LinkID) bool { _, ok := s.m[l]; return ok }

// Len returns the cardinality.
func (s LinkSet) Len() int { return len(s.m) }

// Sorted returns the members in ascending order.
func (s LinkSet) Sorted() []LinkID {
	out := make([]LinkID, 0, len(s.m))
	for l := range s.m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether two sets have identical members.
func (s LinkSet) Equal(o LinkSet) bool {
	if len(s.m) != len(o.m) {
		return false
	}
	for l := range s.m {
		if !o.Contains(l) {
			return false
		}
	}
	return true
}

// Union returns a new set with the members of both.
func (s LinkSet) Union(o LinkSet) LinkSet {
	u := NewLinkSet()
	for l := range s.m {
		u.Add(l)
	}
	for l := range o.m {
		u.Add(l)
	}
	return u
}

// Intersect returns a new set with the common members.
func (s LinkSet) Intersect(o LinkSet) LinkSet {
	u := NewLinkSet()
	for l := range s.m {
		if o.Contains(l) {
			u.Add(l)
		}
	}
	return u
}

// Minus returns s \ o.
func (s LinkSet) Minus(o LinkSet) LinkSet {
	u := NewLinkSet()
	for l := range s.m {
		if !o.Contains(l) {
			u.Add(l)
		}
	}
	return u
}
