package sw

import (
	"encoding/binary"
	"sync"

	"hcmpi/internal/dddf"
	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
)

// The HCMPI DDDF implementation: every outer tile owned by this rank is a
// data-driven task awaiting its three incoming edges (left tile's right
// column, top tile's bottom row, diagonal tile's corner), published as
// DDDFs with globally unique ids. No rank ever blocks on a specific peer;
// the wavefront advances unevenly ("unstructured diagonal", Fig. 23), and
// communication overlaps computation through the communication worker.
// An outer tile is cut into the inner-tile wavefront only when the node
// has a second worker to run it; a one-worker rank sweeps each tile
// whole in one task.

// edge kinds within a tile's guid group.
const (
	edgeRight  = 0
	edgeBottom = 1
	edgeCorner = 2
)

// Guid computes the DDDF id for a tile edge.
func Guid(cfg Config, ti, tj, edge int) int64 {
	return int64((ti*cfg.TilesW()+tj)*3 + edge)
}

// HomeFunc builds the dddf.HomeFunc for a distribution.
func HomeFunc(cfg Config, dist Distribution, ranks int) dddf.HomeFunc {
	th, tw := cfg.TilesH(), cfg.TilesW()
	return func(guid int64) int {
		t := int(guid) / 3
		return dist(t/tw, t%tw, th, tw, ranks)
	}
}

// RunDDDF executes the tiled wavefront on one rank's main task and
// returns the global maximum alignment score. The space must have been
// created with HomeFunc(cfg, dist, ranks); call from within the node's
// root task (hcmpi.Node.Main / hcmpi.RunDDDF).
func RunDDDF(space *dddf.Space, ctx *hc.Ctx, cfg Config, dist Distribution) int32 {
	cfg = cfg.normalized()
	c := &cfg
	node := space.Node()
	a, b := cfg.Sequences()
	th, tw := cfg.TilesH(), cfg.TilesW()
	me := node.Rank()
	ranks := node.Size()

	var maxMu sync.Mutex
	var localMax int32

	ctx.Finish(func(ctx *hc.Ctx) {
		for ti := 0; ti < th; ti++ {
			for tj := 0; tj < tw; tj++ {
				if dist(ti, tj, th, tw, ranks) != me {
					continue
				}
				ti, tj := ti, tj
				var deps [3]*dddf.Handle
				n := 0
				var hTop, hLeft, hCorner *dddf.Handle
				if ti > 0 {
					hTop = space.Handle(Guid(cfg, ti-1, tj, edgeBottom))
					deps[n], n = hTop, n+1
				}
				if tj > 0 {
					hLeft = space.Handle(Guid(cfg, ti, tj-1, edgeRight))
					deps[n], n = hLeft, n+1
				}
				if ti > 0 && tj > 0 {
					hCorner = space.Handle(Guid(cfg, ti-1, tj-1, edgeCorner))
					deps[n], n = hCorner, n+1
				}
				space.AsyncAwait(ctx, func(ctx *hc.Ctx) {
					i0, i1, j0, j1 := cfg.TileSpan(ti, tj)
					h, w := i1-i0, j1-j0
					// The incoming edges are decoded straight into the
					// buffers the sweep overwrites with the outgoing ones.
					edges := make([]int32, w+h)
					row, col := edges[:w], edges[w:]
					var corner int32
					if hTop != nil {
						getEdge(row, hTop.MustGet())
					}
					if hLeft != nil {
						getEdge(col, hLeft.MustGet())
					}
					if hCorner != nil {
						corner = int32(binary.LittleEndian.Uint32(hCorner.MustGet()))
					}
					var best int32
					if ctx.NumWorkers() > 1 {
						best = c.sweepTiled(ctx, a[i0:i1], b[j0:j1], row, col, corner)
					} else {
						best = c.sweep(a[i0:i1], b[j0:j1], row, col, corner)
					}
					// One buffer carries the three outgoing values: the
					// right column, the bottom row and the corner.
					out := make([]byte, 4*(h+w+1))
					putEdge(out, col)
					putEdge(out[4*h:], row)
					binary.LittleEndian.PutUint32(out[4*(h+w):], uint32(cornerOf(row, col, corner)))
					space.Handle(Guid(cfg, ti, tj, edgeRight)).Put(ctx, out[:4*h:4*h])
					space.Handle(Guid(cfg, ti, tj, edgeBottom)).Put(ctx, out[4*h:4*(h+w):4*(h+w)])
					space.Handle(Guid(cfg, ti, tj, edgeCorner)).Put(ctx, out[4*(h+w):])
					maxMu.Lock()
					if best > localMax {
						localMax = best
					}
					maxMu.Unlock()
				}, deps[:n]...)
			}
		}
	})
	// All my tiles are done; combine maxima across ranks.
	global := node.Allreduce(ctx, mpi.EncodeInt64(int64(localMax)), mpi.Int64, mpi.OpMax)
	maxMu.Lock()
	localMax = int32(mpi.DecodeInt64(global))
	maxMu.Unlock()
	return localMax
}

// sweepTiled evaluates one outer tile as an intra-node wavefront of
// inner tiles synchronized by shared-memory DDFs (the hierarchical tiling
// of Fig. 23: outer tiles tune communication granularity, inner tiles
// tune task granularity). It is sweep split into inner-tile tasks; row
// and col are the outer tile's edges, swept in place as in sweep.
//
// Inner tile (p,q) sweeps its own slices of row and col, which hold the
// edges of its top and left neighbours when it starts: column q's tiles
// write row[j0:j1] one after another down the column, and row p's tiles
// write col[i0:i1] one after another along the row, each awaiting the
// tile that wrote before it. The one value an inner tile needs that
// those slices no longer hold is its corner, which its left neighbour
// has overwritten; every tile therefore also records its bottom-right
// cell in a corner grid. Awaiting the top and left neighbours is enough:
// the diagonal one finished before either.
func (c *Config) sweepTiled(ctx *hc.Ctx, a, b []byte, row, col []int32, corner int32) int32 {
	h, w := len(a), len(b)
	ih, iw := c.InnerH, c.InnerW
	gh := (h + ih - 1) / ih
	gw := (w + iw - 1) / iw
	if gh*gw <= 1 {
		return c.sweep(a, b, row, col, corner)
	}
	g := &wavefront{cfg: c, a: a, b: b, row: row, col: col, gw: gw,
		ready: make([]hc.DDF, gh*gw)}
	buf := make([]int32, (gh+1)*(gw+1)+gh*gw)
	g.corners, g.maxes = buf[:(gh+1)*(gw+1)], buf[(gh+1)*(gw+1):]
	// The grid's top and left borders come from the incoming edges,
	// read before any inner tile overwrites them.
	g.corners[0] = corner
	for q := 1; q < gw; q++ {
		g.corners[q] = row[q*iw-1]
	}
	for p := 1; p < gh; p++ {
		g.corners[p*(gw+1)] = col[p*ih-1]
	}
	ctx.Finish(func(ctx *hc.Ctx) {
		for p := 0; p < gh; p++ {
			for q := 0; q < gw; q++ {
				var deps [2]*hc.DDF
				n := 0
				if p > 0 {
					deps[n], n = &g.ready[(p-1)*gw+q], n+1
				}
				if q > 0 {
					deps[n], n = &g.ready[p*gw+q-1], n+1
				}
				p, q := p, q
				ctx.AsyncAwait(func(ctx *hc.Ctx) { g.tile(ctx, p, q) }, deps[:n]...)
			}
		}
	})
	var best int32
	for _, m := range g.maxes {
		best = max(best, m)
	}
	return best
}

// wavefront is one outer tile being swept as a grid of inner tiles.
type wavefront struct {
	cfg      *Config
	a, b     []byte
	row, col []int32
	gw       int
	// corners is (gh+1)×(gw+1): corners[p*(gw+1)+q] is the cell
	// diagonally above-left of inner tile (p,q), which tile (p-1,q-1)
	// writes as its bottom-right cell.
	corners []int32
	maxes   []int32  // per inner tile, its largest cell
	ready   []hc.DDF // per inner tile, put once it is swept
}

// tile sweeps inner tile (p,q) and releases its right and lower
// neighbours.
func (g *wavefront) tile(ctx *hc.Ctx, p, q int) {
	c := g.cfg
	i0, j0 := p*c.InnerH, q*c.InnerW
	i1, j1 := min(i0+c.InnerH, len(g.a)), min(j0+c.InnerW, len(g.b))
	k := p*g.gw + q
	g.maxes[k] = c.sweep(g.a[i0:i1], g.b[j0:j1], g.row[j0:j1], g.col[i0:i1], g.corners[k+p])
	g.corners[k+p+g.gw+2] = g.row[j1-1]
	g.ready[k].Put(ctx, struct{}{})
}
