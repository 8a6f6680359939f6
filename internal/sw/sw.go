// Package sw implements the paper's Smith-Waterman case study (§IV-C): a
// hierarchically tiled local sequence alignment computed as a 2D
// wavefront. Outer tiles are distributed across ranks and synchronized
// with distributed data-driven futures (each tile publishes its right
// column, bottom row, and bottom-right corner, exactly the three DDDFs of
// Fig. 23); inner tiles exploit intra-node wavefront parallelism with
// shared-memory data-driven tasks. The baseline is the MPI+OpenMP
// fork-join version with an implicit barrier between diagonals (Fig. 25).
//
// The paper aligns two real sequences of 1.856M/1.92M characters; here
// the inputs are synthetic random DNA strings of configurable length
// (DESIGN.md §2) — the dependence structure, which is what the runtime
// study measures, is unchanged.
package sw

import (
	"encoding/binary"
	"math/rand"
)

// Config describes one alignment problem and its tiling.
type Config struct {
	LenA, LenB int   // sequence lengths (rows, columns)
	Seed       int64 // synthetic sequence seed
	// Outer tiling (distributed): tile sizes in elements.
	OuterH, OuterW int
	// Inner tiling (intra-node tasks): tile sizes in elements.
	InnerH, InnerW int
	// Scoring.
	Match, Mismatch, Gap int32
}

// DefaultScoring fills in standard scoring when unset.
func (c Config) normalized() Config {
	if c.Match == 0 {
		c.Match = 2
	}
	if c.Mismatch == 0 {
		c.Mismatch = -1
	}
	if c.Gap == 0 {
		c.Gap = 1 // subtracted
	}
	if c.OuterH <= 0 {
		c.OuterH = c.LenA
	}
	if c.OuterW <= 0 {
		c.OuterW = c.LenB
	}
	if c.InnerH <= 0 {
		c.InnerH = c.OuterH
	}
	if c.InnerW <= 0 {
		c.InnerW = c.OuterW
	}
	return c
}

// TilesH and TilesW give the outer tile grid dimensions.
func (c Config) TilesH() int { n := c.normalized(); return (n.LenA + n.OuterH - 1) / n.OuterH }

// TilesW gives the outer tile grid width.
func (c Config) TilesW() int { n := c.normalized(); return (n.LenB + n.OuterW - 1) / n.OuterW }

// Sequences deterministically generates the two synthetic DNA sequences.
func (c Config) Sequences() (a, b []byte) {
	rng := rand.New(rand.NewSource(c.Seed))
	letters := []byte("ACGT")
	a = make([]byte, c.LenA)
	b = make([]byte, c.LenB)
	for i := range a {
		a[i] = letters[rng.Intn(4)]
	}
	for i := range b {
		b[i] = letters[rng.Intn(4)]
	}
	return a, b
}

// TileResult carries the outward-visible state of a computed tile: its
// right column, bottom row, bottom-right corner, and local maximum.
type TileResult struct {
	Right  []int32
	Bottom []int32
	Corner int32
	Max    int32
}

// ComputeTile evaluates the Smith-Waterman recurrence over the rectangle
// a×b given the incoming edges: top (len(b) values), left (len(a)
// values), and the diagonal corner. Boundary tiles pass zero-filled
// edges. Only the outgoing edges and the tile's max are retained, so a
// tile costs O(len(a)+len(b)) space. The edges are copied into the
// result, which sweep then overwrites in place.
func ComputeTile(cfg Config, a, b []byte, top, left []int32, corner int32) TileResult {
	cfg = cfg.normalized()
	res := TileResult{Right: make([]int32, len(a)), Bottom: make([]int32, len(b))}
	copy(res.Bottom, top)
	copy(res.Right, left)
	res.Max = cfg.sweep(a, b, res.Bottom, res.Right, corner)
	res.Corner = cornerOf(res.Bottom, res.Right, corner)
	return res
}

// sweep is the one Smith-Waterman kernel: every path (SeqMax,
// ComputeTile, the inner tiles of the DDDF version, the hybrid baseline)
// evaluates its cells here. It works in place on the tile's edges: on
// entry row[:len(b)] holds the row above the tile, col[:len(a)] the
// column left of it and corner the cell diagonally above-left; on return
// row holds the tile's bottom row and col its right column. It returns
// the tile's largest cell. c must be normalized.
//
//hclint:hotpath
func (c *Config) sweep(a, b []byte, row, col []int32, corner int32) int32 {
	row = row[:len(b)]
	col = col[:len(a)]
	var best int32
	diag := corner
	for i, ai := range a {
		left := col[i]
		col[i], best = sweepRow(ai, b, row, left, diag, best, c.Match, c.Mismatch, c.Gap)
		diag = left // H(i, -1) is row i+1's diagonal seed
	}
	return best
}

// sweepRow sweeps one row of a tile: ai against b, over row (which holds
// the row above on entry and this row on return), from the left edge
// value left and the diagonal seed diag. It returns the row's last cell
// and best raised to the row's largest cell.
//
// A cell loads one value (the cell above, row[j]) and stores one (itself,
// over it). Its left and diagonal neighbours are the previous cell and
// the previous cell's "above", carried in registers rather than reloaded
// from the stores just made, and the left neighbour enters the maximum
// last, so a subtraction and a select are all that chain one cell to the
// next. The function is kept out of line so that the row loop's values
// do not compete with the cell loop's for registers: inlined into sweep
// it spilled and ran ≈ 15 % slower.
//
//hclint:hotpath
//go:noinline
func sweepRow(ai byte, b []byte, row []int32, left, diag, best, match, mismatch, gap int32) (int32, int32) {
	row = row[:len(b)]
	for j, bj := range b {
		up := row[j]
		s := mismatch
		if ai == bj {
			s = match
		}
		v := max(diag+s, up-gap, 0)
		v = max(v, left-gap)
		row[j] = v
		best = max(best, v)
		diag, left = up, v
	}
	return left, best
}

// cornerOf is a swept tile's bottom-right cell: the last of its bottom
// row, or of its right column when it has no columns, or the incoming
// corner when it has neither.
func cornerOf(row, col []int32, corner int32) int32 {
	switch {
	case len(row) > 0:
		return row[len(row)-1]
	case len(col) > 0:
		return col[len(col)-1]
	}
	return corner
}

// SeqMax computes the full alignment sequentially (the ground truth for
// the distributed implementations): one sweep over the whole matrix.
func SeqMax(cfg Config) int32 {
	cfg = cfg.normalized()
	a, b := cfg.Sequences()
	return cfg.sweep(a, b, make([]int32, len(b)), make([]int32, len(a)), 0)
}

// putEdge writes edge v into dst (4 bytes per value, little endian), the
// wire form of a DDDF or message edge.
func putEdge(dst []byte, v []int32) {
	dst = dst[:4*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(x))
	}
}

// EncodeEdge packs an int32 edge vector into a new wire buffer.
func EncodeEdge(v []int32) []byte {
	b := make([]byte, 4*len(v))
	putEdge(b, v)
	return b
}

// getEdge decodes the wire edge b into dst.
func getEdge(dst []int32, b []byte) {
	b = b[:4*len(dst)]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// TileSpan returns element ranges covered by outer tile (ti,tj).
func (c Config) TileSpan(ti, tj int) (i0, i1, j0, j1 int) {
	n := c.normalized()
	i0 = ti * n.OuterH
	i1 = i0 + n.OuterH
	if i1 > n.LenA {
		i1 = n.LenA
	}
	j0 = tj * n.OuterW
	j1 = j0 + n.OuterW
	if j1 > n.LenB {
		j1 = n.LenB
	}
	return
}

// Distribution maps an outer tile to its home rank.
type Distribution func(ti, tj, tilesH, tilesW, ranks int) int

// DiagonalBlocks is the paper's best HCMPI distribution: each
// anti-diagonal is split into contiguous chunks assigned to ranks in
// order, producing bands perpendicular to the wavefront.
func DiagonalBlocks(ti, tj, tilesH, tilesW, ranks int) int {
	d := ti + tj
	// Position of (ti,tj) along diagonal d and the diagonal's length.
	lo := 0
	if d-(tilesW-1) > 0 {
		lo = d - (tilesW - 1)
	}
	hi := d
	if hi > tilesH-1 {
		hi = tilesH - 1
	}
	length := hi - lo + 1
	pos := ti - lo
	return pos * ranks / length
}

// ColumnCyclic assigns tiles by column, cyclically — the distribution the
// paper found best for the MPI+OpenMP baseline (a cyclic distribution on
// the diagonals).
func ColumnCyclic(_, tj, _, _, ranks int) int { return tj % ranks }
