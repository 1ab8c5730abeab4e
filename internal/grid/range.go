package grid

import "fmt"

// Range sub-specs: a Range restricts a grid to a contiguous half-open
// cell interval [Lo, Hi) without changing cell indices, seeds, or
// labels — cell i of a ranged run is exactly cell i of the full grid.
// Ranges are how a sweep is partitioned across independent processes
// or machines: PartitionBlocks splits the cell space into n disjoint
// contiguous ranges whose boundaries are aligned to a block size (the
// sweep engine passes its shard count), so every partition's output
// shard files can later be concatenated, in range order, into the
// byte-identical files a single-process run would have written.

// Range is a half-open contiguous cell interval [Lo, Hi) of a grid.
// The zero Range is empty.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of cells in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// FullRange is the range covering every cell of the grid.
func (g *Grid) FullRange() Range { return Range{Lo: 0, Hi: g.Cells()} }

// CheckRange validates r against the grid: ordered bounds within
// [0, Cells]. Empty ranges (Lo == Hi) are valid — a partition of a
// small grid can legitimately receive no cells.
func (g *Grid) CheckRange(r Range) error {
	if r.Lo < 0 || r.Hi < r.Lo || r.Hi > g.Cells() {
		return fmt.Errorf("grid %s: range [%d,%d) outside [0,%d)", g.Name, r.Lo, r.Hi, g.Cells())
	}
	return nil
}

// PartitionBlocks computes partition k of n (1-based k) over `cells`
// cells with both boundaries aligned to multiples of `block` (except
// the final boundary, which is `cells` itself). The n ranges are
// disjoint, cover [0, cells) exactly, and are balanced to within one
// block (the last range may additionally be short by the final
// partial block); the split is a pure function of (cells, block, k, n), so
// every machine of a fleet computes identical ranges from the shared
// spec. With block = the sweep shard count, every partition's Lo is a
// shard-cycle boundary: cell (Lo+j) lands in shard (Lo+j) mod shards
// = j mod shards, which keeps per-partition shard files concatenable.
func PartitionBlocks(cells, block, k, n int) (Range, error) {
	if cells < 0 {
		return Range{}, fmt.Errorf("grid: partition over %d cells", cells)
	}
	if block < 1 {
		return Range{}, fmt.Errorf("grid: partition block %d must be >= 1", block)
	}
	if n < 1 || k < 1 || k > n {
		return Range{}, fmt.Errorf("grid: partition %d/%d is not a valid 1-based k/n split", k, n)
	}
	blocks := (cells + block - 1) / block
	// Distribute whole blocks as evenly as possible: the first
	// blocks%n partitions get one extra.
	lo := boundary(blocks, k-1, n) * block
	hi := boundary(blocks, k, n) * block
	if hi > cells {
		hi = cells
	}
	if lo > cells {
		lo = cells
	}
	return Range{Lo: lo, Hi: hi}, nil
}

// boundary returns how many of `blocks` blocks precede partition k of
// n in the balanced split: the first blocks%n partitions hold
// blocks/n+1 blocks, the rest blocks/n.
func boundary(blocks, k, n int) int {
	per, extra := blocks/n, blocks%n
	if k <= extra {
		return k * (per + 1)
	}
	return extra*(per+1) + (k-extra)*per
}
