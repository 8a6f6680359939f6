package sw

import (
	"fmt"
	"sync"

	"hcmpi/internal/mpi"
	"hcmpi/internal/omp"
)

// The MPI+OpenMP baseline (Fig. 25): tiles are distributed by column
// (cyclic — the distribution the paper found best for this variant), and
// the computation proceeds diagonal by diagonal. Each diagonal is an
// OpenMP parallel-for over the rank's tiles with an implicit barrier at
// the end, and all boundary exchange happens after the region — the
// fork/join structure whose inter-diagonal barriers and staged
// communication the paper identifies as the reason HCMPI's DDDF version
// wins beyond 6 cores per node.

// edge message tags: tag = consumerTile*4 + edgeKind (user tag space).
func hybridTag(cfg Config, ti, tj, edge int) int {
	return (ti*cfg.TilesW()+tj)*4 + edge
}

// RunHybrid executes the fork-join wavefront on one rank and returns the
// global maximum score.
func RunHybrid(c *mpi.Comm, cfg Config, threads int, dist Distribution) int32 {
	cfg = cfg.normalized()
	a, b := cfg.Sequences()
	th, tw := cfg.TilesH(), cfg.TilesW()
	me, ranks := c.Rank(), c.Size()
	team := omp.NewTeam(threads)

	if (th*tw)*4 >= 1<<24 {
		panic(fmt.Sprintf("sw: tile grid %dx%d exceeds the tag space", th, tw))
	}

	// Local edge store: producer-side results this rank computed.
	local := make(map[int]TileResult)
	owner := func(ti, tj int) int { return dist(ti, tj, th, tw, ranks) }

	// fetchEdge fills dst with a consumer tile's input edge: from the
	// local store when this rank computed the producer, otherwise from a
	// blocking receive tagged with the consumer tile and edge kind.
	var recvBuf []byte
	fetchEdge := func(dst []int32, cti, ctj, pti, ptj, edge int) {
		if owner(pti, ptj) == me {
			res := local[pti*tw+ptj]
			switch edge {
			case edgeBottom:
				copy(dst, res.Bottom)
			case edgeRight:
				copy(dst, res.Right)
			default:
				dst[0] = res.Corner
			}
			return
		}
		if n := 4 * len(dst); cap(recvBuf) < n {
			recvBuf = make([]byte, n)
		}
		buf := recvBuf[:4*len(dst)]
		c.Recv(buf, owner(pti, ptj), hybridTag(cfg, cti, ctj, edge))
		getEdge(dst, buf)
	}

	var localMax int32

	for d := 0; d < th+tw-1; d++ {
		// My tiles on this diagonal.
		var mine [][2]int
		for ti := max(0, d-(tw-1)); ti <= min(th-1, d); ti++ {
			tj := d - ti
			if owner(ti, tj) == me {
				mine = append(mine, [2]int{ti, tj})
			}
		}
		if len(mine) == 0 {
			continue
		}

		// Phase 1 (sequential, main thread): gather remote inputs,
		// straight into the edges each tile sweeps in place.
		results := make([]TileResult, len(mine))
		for k, t := range mine {
			ti, tj := t[0], t[1]
			i0, i1, j0, j1 := cfg.TileSpan(ti, tj)
			edges := make([]int32, (j1-j0)+(i1-i0)+1) // bottom row, right column, corner
			res := TileResult{Bottom: edges[:j1-j0], Right: edges[j1-j0 : len(edges)-1]}
			corner := edges[len(edges)-1:]
			if ti > 0 {
				fetchEdge(res.Bottom, ti, tj, ti-1, tj, edgeBottom)
			}
			if tj > 0 {
				fetchEdge(res.Right, ti, tj, ti, tj-1, edgeRight)
			}
			if ti > 0 && tj > 0 {
				fetchEdge(corner, ti, tj, ti-1, tj-1, edgeCorner)
			}
			res.Corner = corner[0]
			results[k] = res
		}

		// Phase 2: the parallel region — sweep all diagonal tiles, with
		// the implicit barrier of the region's join.
		var mu sync.Mutex
		team.Parallel(func(tc *omp.TC) {
			tc.DynamicFor(len(mine), 1, func(k int) {
				ti, tj := mine[k][0], mine[k][1]
				i0, i1, j0, j1 := cfg.TileSpan(ti, tj)
				res := &results[k]
				res.Max = cfg.sweep(a[i0:i1], b[j0:j1], res.Bottom, res.Right, res.Corner)
				res.Corner = cornerOf(res.Bottom, res.Right, res.Corner)
				mu.Lock()
				if res.Max > localMax {
					localMax = res.Max
				}
				mu.Unlock()
			})
		})

		// Phase 3 (sequential): publish edges to consumers — communication
		// strictly after computation, as in the staged hybrid model.
		for k, t := range mine {
			ti, tj := t[0], t[1]
			res := results[k]
			local[ti*tw+tj] = res
			if ti+1 < th && owner(ti+1, tj) != me {
				c.Isend(EncodeEdge(res.Bottom), owner(ti+1, tj), hybridTag(cfg, ti+1, tj, edgeBottom))
			}
			if tj+1 < tw && owner(ti, tj+1) != me {
				c.Isend(EncodeEdge(res.Right), owner(ti, tj+1), hybridTag(cfg, ti, tj+1, edgeRight))
			}
			if ti+1 < th && tj+1 < tw && owner(ti+1, tj+1) != me {
				c.Isend(EncodeEdge([]int32{res.Corner}), owner(ti+1, tj+1), hybridTag(cfg, ti+1, tj+1, edgeCorner))
			}
		}
	}

	global := c.Allreduce(mpi.EncodeInt64(int64(localMax)), mpi.Int64, mpi.OpMax)
	return int32(mpi.DecodeInt64(global))
}
