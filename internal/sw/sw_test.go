package sw

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"hcmpi/internal/dddf"
	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
)

func TestSequencesDeterministic(t *testing.T) {
	cfg := Config{LenA: 100, LenB: 120, Seed: 5}
	a1, b1 := cfg.Sequences()
	a2, b2 := cfg.Sequences()
	if string(a1) != string(a2) || string(b1) != string(b2) {
		t.Fatal("sequences not deterministic")
	}
	if len(a1) != 100 || len(b1) != 120 {
		t.Fatalf("lengths %d %d", len(a1), len(b1))
	}
}

func TestComputeTileMatchesReference(t *testing.T) {
	// Reference: full quadratic DP.
	cfg := Config{LenA: 37, LenB: 53, Seed: 9}.normalized()
	a, b := cfg.Sequences()
	ref := refSW(cfg, a, b)

	top := make([]int32, len(b))
	left := make([]int32, len(a))
	r := ComputeTile(cfg, a, b, top, left, 0)
	if r.Max != ref {
		t.Fatalf("ComputeTile max %d want %d", r.Max, ref)
	}
}

// refSW is a straightforward full-matrix Smith-Waterman.
func refSW(cfg Config, a, b []byte) int32 {
	var best int32
	for _, r := range refMatrix(cfg, a, b) {
		for _, v := range r {
			best = max(best, v)
		}
	}
	return best
}

// refMatrix is the whole score matrix H, one padded row and column of
// zeros included: h[i+1][j+1] is cell (i,j).
func refMatrix(cfg Config, a, b []byte) [][]int32 {
	h := make([][]int32, len(a)+1)
	for i := range h {
		h[i] = make([]int32, len(b)+1)
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			s := cfg.Mismatch
			if a[i-1] == b[j-1] {
				s = cfg.Match
			}
			v := h[i-1][j-1] + s
			if x := h[i-1][j] - cfg.Gap; x > v {
				v = x
			}
			if x := h[i][j-1] - cfg.Gap; x > v {
				v = x
			}
			if v < 0 {
				v = 0
			}
			h[i][j] = v
		}
	}
	return h
}

// TestGoldenScores pins the alignment itself, not just agreement between
// the kernel's own paths: the scores were computed by the two-row
// (prev/curr) kernel that preceded sweep. The last row is the sw_dddf
// workload's size.
func TestGoldenScores(t *testing.T) {
	for _, g := range []struct {
		cfg  Config
		want int32
	}{
		{Config{LenA: 37, LenB: 53, Seed: 9}, 31},
		{Config{LenA: 96, LenB: 120, Seed: 21}, 79},
		{Config{LenA: 200, LenB: 180, Seed: 77}, 140},
		{Config{LenA: 1000, LenB: 1200, Seed: 1}, 829},
		{Config{LenA: 600, LenB: 600, Seed: 5, Match: 3, Mismatch: -2, Gap: 2}, 497},
		{Config{LenA: 4800, LenB: 4800, Seed: 42}, 3599},
	} {
		if got := SeqMax(g.cfg); got != g.want {
			t.Errorf("SeqMax(%+v) = %d, want %d", g.cfg, got, g.want)
		}
	}
	// The DDDF path, outer and inner tiles, on one of them.
	cfg := Config{LenA: 1000, LenB: 1200, Seed: 1, OuterH: 250, OuterW: 300, InnerH: 50, InnerW: 60}
	for r, got := range runSW(t, 2, 2, cfg, DiagonalBlocks) {
		if got != 829 {
			t.Errorf("RunDDDF rank %d: %d, want 829", r, got)
		}
	}
}

// TestSweepEdgesMatchReference checks the sweep cell for cell where it
// leaves anything behind: over a grid of tiles fed each other's edges
// (so most tiles start from non-zero edges and corners), every tile's
// bottom row, right column and corner must equal the reference matrix's,
// for the whole-tile sweep and for the inner-tile wavefront, under both
// scorings.
func TestSweepEdgesMatchReference(t *testing.T) {
	rt := hc.New(2)
	defer rt.Shutdown()
	for _, cfg := range []Config{
		{LenA: 90, LenB: 110, Seed: 4, OuterH: 30, OuterW: 37, InnerH: 7, InnerW: 9},
		{LenA: 64, LenB: 64, Seed: 8, OuterH: 64, OuterW: 16, InnerH: 64, InnerW: 5},
		{LenA: 50, LenB: 41, Seed: 2, OuterH: 13, OuterW: 41, InnerH: 1, InnerW: 41, Match: 3, Mismatch: -2, Gap: 2},
	} {
		cfg = cfg.normalized()
		a, b := cfg.Sequences()
		h := refMatrix(cfg, a, b)
		for _, parallel := range []bool{false, true} {
			row := make([]int32, len(b)) // the bottom rows of the tiles swept so far
			col := make([]int32, len(a))
			corners := make(map[[2]int]int32)
			var best int32
			for ti := 0; ti < cfg.TilesH(); ti++ {
				for tj := 0; tj < cfg.TilesW(); tj++ {
					i0, i1, j0, j1 := cfg.TileSpan(ti, tj)
					top := append([]int32(nil), row[j0:j1]...)
					left := append([]int32(nil), col[i0:i1]...)
					var corner int32
					if ti > 0 && tj > 0 {
						corner = corners[[2]int{ti - 1, tj - 1}]
					}
					var r TileResult
					if parallel {
						r = TileResult{Bottom: top, Right: left}
						rt.Root(func(ctx *hc.Ctx) {
							r.Max = cfg.sweepTiled(ctx, a[i0:i1], b[j0:j1], r.Bottom, r.Right, corner)
						})
						r.Corner = cornerOf(r.Bottom, r.Right, corner)
					} else {
						r = ComputeTile(cfg, a[i0:i1], b[j0:j1], top, left, corner)
					}
					for j := j0; j < j1; j++ {
						if r.Bottom[j-j0] != h[i1][j+1] {
							t.Fatalf("%+v parallel=%v tile (%d,%d): bottom[%d] = %d, want %d", cfg, parallel, ti, tj, j-j0, r.Bottom[j-j0], h[i1][j+1])
						}
					}
					for i := i0; i < i1; i++ {
						if r.Right[i-i0] != h[i+1][j1] {
							t.Fatalf("%+v parallel=%v tile (%d,%d): right[%d] = %d, want %d", cfg, parallel, ti, tj, i-i0, r.Right[i-i0], h[i+1][j1])
						}
					}
					if r.Corner != h[i1][j1] {
						t.Fatalf("%+v parallel=%v tile (%d,%d): corner %d, want %d", cfg, parallel, ti, tj, r.Corner, h[i1][j1])
					}
					copy(row[j0:j1], r.Bottom)
					copy(col[i0:i1], r.Right)
					corners[[2]int{ti, tj}] = r.Corner
					best = max(best, r.Max)
				}
			}
			if want := refSW(cfg, a, b); best != want {
				t.Fatalf("%+v parallel=%v: max %d, want %d", cfg, parallel, best, want)
			}
		}
	}
}

// TestSweepAllocFree pins the kernel at zero allocations: it sweeps the
// caller's edges in place. ComputeTile allocates exactly its two result
// edges.
func TestSweepAllocFree(t *testing.T) {
	cfg := Config{LenA: 50, LenB: 50, Seed: 3}.normalized()
	a, b := cfg.Sequences()
	row, col := make([]int32, len(b)), make([]int32, len(a))
	if n := testing.AllocsPerRun(100, func() { cfg.sweep(a, b, row, col, 0) }); n != 0 {
		t.Fatalf("sweep: %.1f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ComputeTile(cfg, a, b, row, col, 0) }); n != 2 {
		t.Fatalf("ComputeTile: %.1f allocations, want 2", n)
	}
}

// BenchmarkSWSweep times the kernel on the sw_dddf workload's inner tile
// (50 × 50) and on a 1000 × 1000 matrix, in nanoseconds per cell.
func BenchmarkSWSweep(b *testing.B) {
	for _, n := range []int{50, 1000} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			cfg := Config{LenA: n, LenB: n, Seed: 1}.normalized()
			x, y := cfg.Sequences()
			row, col := make([]int32, n), make([]int32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.sweep(x, y, row, col, 0)
			}
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(n*n), "ns/cell")
		})
	}
}

// TestTilingInvariance: splitting the matrix into tiles must not change
// the result — the central correctness property of the edge-passing
// scheme.
func TestTilingInvariance(t *testing.T) {
	cfg := Config{LenA: 64, LenB: 80, Seed: 3}
	want := SeqMax(cfg)
	for _, tile := range []struct{ oh, ow int }{{16, 16}, {10, 25}, {64, 80}, {7, 9}, {64, 13}} {
		c := cfg
		c.OuterH, c.OuterW = tile.oh, tile.ow
		got := seqTiled(c)
		if got != want {
			t.Fatalf("tiling %dx%d: max %d want %d", tile.oh, tile.ow, got, want)
		}
	}
}

// seqTiled runs the tile recurrence sequentially over the outer grid.
func seqTiled(cfg Config) int32 {
	cfg = cfg.normalized()
	a, b := cfg.Sequences()
	th, tw := cfg.TilesH(), cfg.TilesW()
	rights := make(map[[2]int][]int32)
	bottoms := make(map[[2]int][]int32)
	corners := make(map[[2]int]int32)
	var best int32
	for ti := 0; ti < th; ti++ {
		for tj := 0; tj < tw; tj++ {
			i0, i1, j0, j1 := cfg.TileSpan(ti, tj)
			top := make([]int32, j1-j0)
			left := make([]int32, i1-i0)
			var corner int32
			if ti > 0 {
				copy(top, bottoms[[2]int{ti - 1, tj}])
			}
			if tj > 0 {
				copy(left, rights[[2]int{ti, tj - 1}])
			}
			if ti > 0 && tj > 0 {
				corner = corners[[2]int{ti - 1, tj - 1}]
			}
			r := ComputeTile(cfg, a[i0:i1], b[j0:j1], top, left, corner)
			rights[[2]int{ti, tj}] = r.Right
			bottoms[[2]int{ti, tj}] = r.Bottom
			corners[[2]int{ti, tj}] = r.Corner
			if r.Max > best {
				best = r.Max
			}
		}
	}
	return best
}

// Property: tiling invariance over random sizes and tilings.
func TestQuickTilingInvariance(t *testing.T) {
	f := func(la, lb, oh, ow uint8, seed int64) bool {
		cfg := Config{
			LenA: int(la%60) + 4, LenB: int(lb%60) + 4, Seed: seed,
			OuterH: int(oh%20) + 1, OuterW: int(ow%20) + 1,
		}
		plain := cfg
		plain.OuterH, plain.OuterW = 0, 0
		return seqTiled(cfg) == SeqMax(plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeTileParallelMatches(t *testing.T) {
	cfg := Config{LenA: 48, LenB: 60, Seed: 12, InnerH: 7, InnerW: 11}
	want := SeqMax(Config{LenA: 48, LenB: 60, Seed: 12})
	rt := hc.New(3)
	defer rt.Shutdown()
	var got int32
	rt.Root(func(ctx *hc.Ctx) {
		c := cfg.normalized()
		a, b := c.Sequences()
		got = c.sweepTiled(ctx, a, b, make([]int32, len(b)), make([]int32, len(a)), 0)
	})
	if got != want {
		t.Fatalf("parallel tile max %d want %d", got, want)
	}
}

func TestEdgeCodecRoundTrip(t *testing.T) {
	v := []int32{0, 1, -5, 1 << 30}
	got := make([]int32, len(v))
	getEdge(got, EncodeEdge(v))
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("edge codec: %v vs %v", got, v)
		}
	}
}

func TestDistributions(t *testing.T) {
	// DiagonalBlocks must cover every rank across a diagonal and be
	// deterministic; ColumnCyclic must wrap columns.
	const th, tw, ranks = 10, 10, 4
	for d := 0; d < th+tw-1; d++ {
		for ti := max(0, d-(tw-1)); ti <= min(th-1, d); ti++ {
			tj := d - ti
			r := DiagonalBlocks(ti, tj, th, tw, ranks)
			if r < 0 || r >= ranks {
				t.Fatalf("DiagonalBlocks out of range: %d", r)
			}
		}
	}
	if ColumnCyclic(3, 7, th, tw, ranks) != 7%ranks {
		t.Fatal("ColumnCyclic wrong")
	}
}

func TestGuidHomeRoundTrip(t *testing.T) {
	cfg := Config{LenA: 100, LenB: 100, OuterH: 10, OuterW: 10}
	home := HomeFunc(cfg, DiagonalBlocks, 3)
	for ti := 0; ti < cfg.TilesH(); ti++ {
		for tj := 0; tj < cfg.TilesW(); tj++ {
			for e := 0; e < 3; e++ {
				if got := home(Guid(cfg, ti, tj, e)); got != DiagonalBlocks(ti, tj, cfg.TilesH(), cfg.TilesW(), 3) {
					t.Fatalf("home(%d,%d,%d) = %d", ti, tj, e, got)
				}
			}
		}
	}
}

func runSW(t *testing.T, ranks, workers int, cfg Config, dist Distribution) []int32 {
	t.Helper()
	var mu sync.Mutex
	out := make([]int32, ranks)
	w := mpi.NewWorld(ranks)
	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, hcmpi.Config{Workers: workers})
		space := dddf.NewSpace(n, HomeFunc(cfg, dist, ranks), nil)
		n.Main(func(ctx *hc.Ctx) {
			got := RunDDDF(space, ctx, cfg, dist)
			mu.Lock()
			out[c.Rank()] = got
			mu.Unlock()
		})
		n.Close()
	})
	return out
}

func TestRunDDDFMatchesSequential(t *testing.T) {
	cfg := Config{LenA: 96, LenB: 120, Seed: 21, OuterH: 24, OuterW: 30, InnerH: 8, InnerW: 10}
	want := SeqMax(Config{LenA: 96, LenB: 120, Seed: 21})
	for _, tc := range []struct{ ranks, workers int }{{1, 2}, {2, 2}, {3, 1}} {
		for _, dist := range []Distribution{DiagonalBlocks, ColumnCyclic} {
			got := runSW(t, tc.ranks, tc.workers, cfg, dist)
			for r, g := range got {
				if g != want {
					t.Fatalf("ranks=%d workers=%d rank %d: max %d want %d", tc.ranks, tc.workers, r, g, want)
				}
			}
		}
	}
}

func TestRunHybridMatchesSequentialSW(t *testing.T) {
	cfg := Config{LenA: 96, LenB: 120, Seed: 33, OuterH: 16, OuterW: 20}
	want := SeqMax(Config{LenA: 96, LenB: 120, Seed: 33})
	for _, tc := range []struct{ ranks, threads int }{{1, 2}, {2, 2}, {3, 3}} {
		var mu sync.Mutex
		out := make([]int32, tc.ranks)
		w := mpi.NewWorld(tc.ranks)
		w.Run(func(c *mpi.Comm) {
			got := RunHybrid(c, cfg, tc.threads, ColumnCyclic)
			mu.Lock()
			out[c.Rank()] = got
			mu.Unlock()
		})
		for r, g := range out {
			if g != want {
				t.Fatalf("ranks=%d threads=%d rank %d: max %d want %d", tc.ranks, tc.threads, r, g, want)
			}
		}
	}
}

func TestDDDFAndHybridAgreeOnLargerProblem(t *testing.T) {
	cfg := Config{LenA: 200, LenB: 180, Seed: 77, OuterH: 50, OuterW: 45, InnerH: 10, InnerW: 9}
	d := runSW(t, 2, 2, cfg, DiagonalBlocks)
	var hy int32
	w := mpi.NewWorld(2)
	var mu sync.Mutex
	w.Run(func(c *mpi.Comm) {
		got := RunHybrid(c, cfg, 2, ColumnCyclic)
		mu.Lock()
		hy = got
		mu.Unlock()
	})
	if d[0] != hy {
		t.Fatalf("DDDF %d vs hybrid %d", d[0], hy)
	}
}

// TestRunDDDFOneTaskPerTile pins splitting only where it can run: at one
// worker per rank every outer tile is swept whole by its one data-driven
// task and no inner-tile task is spawned. The node's hc_tasks_run is then the rank's owned outer tiles
// plus the job's one fixed task, the root task, at any tile count.
func TestRunDDDFOneTaskPerTile(t *testing.T) {
	const ranks = 2
	for _, cfg := range []Config{
		{LenA: 96, LenB: 120, Seed: 21, OuterH: 24, OuterW: 30, InnerH: 8, InnerW: 10},
		{LenA: 200, LenB: 180, Seed: 77, OuterH: 20, OuterW: 18, InnerH: 5, InnerW: 6},
	} {
		want := SeqMax(cfg)
		th, tw := cfg.TilesH(), cfg.TilesW()
		w := mpi.NewWorld(ranks)
		w.Run(func(c *mpi.Comm) {
			n := hcmpi.NewNode(c, hcmpi.Config{Workers: 1})
			space := dddf.NewSpace(n, HomeFunc(cfg, DiagonalBlocks, ranks), nil)
			var got int32
			n.Main(func(ctx *hc.Ctx) { got = RunDDDF(space, ctx, cfg, DiagonalBlocks) })
			n.Close()
			owned := int64(0)
			for ti := 0; ti < th; ti++ {
				for tj := 0; tj < tw; tj++ {
					if DiagonalBlocks(ti, tj, th, tw, ranks) == c.Rank() {
						owned++
					}
				}
			}
			if run := n.Metrics().Counter("hc_tasks_run").Load(); run != owned+1 {
				t.Errorf("%dx%d tiles, rank %d: %d hc tasks run, want %d owned tiles + the root task",
					th, tw, c.Rank(), run, owned)
			}
			if got != want {
				t.Errorf("rank %d: max %d want %d", c.Rank(), got, want)
			}
		})
	}
}
