package main

import (
	"encoding/binary"
	"math/rand"
	"time"

	"hcmpi/internal/sw"
	"hcmpi/internal/uts"
)

// Input generation. Everything a workload feeds the program is made here
// from -seed; the program never sees the seed itself. Reference solutions
// (the sequential UTS count and Smith-Waterman score) are computed here
// too, outside set-up and outside every timed window, and their cost is
// reported as bench.gen_s.

const (
	streamBytes = 64 << 10 // tcp_stream_64k message size
	streamTasks = 2
	streamDepth = 16 // messages in flight per sender task
	dddfBytes   = 1 << 10

	// uts_t3mid keeps T3Mid's branching process and draws the root seed
	// until the tree has utsNodes ±2 %. T3 sizes are heavy-tailed (the
	// quartiles over root seeds are 0.6 M and 1.9 M nodes), so without
	// the band solves/s would mostly measure which tree was drawn.
	utsNodes     = 1_000_000
	utsBand      = 0.02
	utsQuickMax  = 60_000
	swLen        = 4800
	swQuickLen   = 600
	swOuterH     = 200
	swOuterW     = 250
	swInner      = 50
	maxUTSDraws  = 5000
	quickDivisor = 50
)

type inputs struct {
	salt   uint64   // mixed into ping-pong, allreduce and DDDF payloads
	blocks [][]byte // tcp_stream_64k: one pattern block per in-flight slot
	perm   []int    // dddf_fetch_1k: order in which guids are resolved

	uts      uts.Config
	utsNodes int64
	sw       sw.Config
	swScore  int32

	genS         float64
	seqNodesPerS float64
	seqCellsPerS float64
}

// generate builds the inputs of one workload.
func generate(w *workload, seed int64, quick bool) *inputs {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{salt: rng.Uint64()}
	switch w.name {
	case "tcp_stream_64k":
		in.blocks = make([][]byte, streamTasks*streamDepth)
		for i := range in.blocks {
			in.blocks[i] = make([]byte, streamBytes)
			rng.Read(in.blocks[i])
		}
	case "dddf_fetch_1k":
		in.perm = rng.Perm(w.opsFor(quick) / 4)
	case "uts_t3mid":
		in.uts, in.utsNodes, in.seqNodesPerS = drawTree(rng, quick)
	case "sw_dddf":
		n := swLen
		if quick {
			n = swQuickLen
		}
		in.sw = sw.Config{LenA: n, LenB: n, Seed: rng.Int63(),
			OuterH: swOuterH, OuterW: swOuterW, InnerH: swInner, InnerW: swInner}
		t := time.Now()
		in.swScore = sw.SeqMax(in.sw)
		in.seqCellsPerS = float64(n) * float64(n) / time.Since(t).Seconds()
	}
	in.genS = time.Since(t0).Seconds()
	return in
}

// drawTree redraws T3Mid's root seed until the tree size is inside the
// band, then counts it with the program's own sequential reference.
func drawTree(rng *rand.Rand, quick bool) (uts.Config, int64, float64) {
	cfg := uts.T3Mid
	lo, hi := int64(utsNodes*(1-utsBand)), int64(utsNodes*(1+utsBand))
	if quick {
		cfg.Q = 0.24 // T3Med's process: ≈50 k nodes, any draw will do
		lo, hi = 1, utsQuickMax
	}
	for i := 0; ; i++ {
		cfg.Seed = rng.Int63()
		if n := countUpTo(cfg, hi); n >= lo && n <= hi {
			break
		}
		if i == maxUTSDraws {
			panic("gen: no UTS root seed inside the size band")
		}
	}
	t := time.Now()
	nodes, _ := cfg.SeqCount()
	return cfg, nodes, float64(nodes) / time.Since(t).Seconds()
}

// countUpTo counts the tree's nodes but gives up (returning limit+1) as
// soon as it exceeds limit, so rejecting an oversized draw is cheap.
func countUpTo(cfg uts.Config, limit int64) int64 {
	stack := []uts.Node{cfg.Root()}
	var n int64
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n++; n > limit {
			return n
		}
		for i, k := 0, cfg.NumChildren(x); i < k; i++ {
			stack = append(stack, cfg.Child(x, i))
		}
	}
	return n
}

// fillValue writes the value of a DDDF: a function of its guid and the
// run's salt, so the consumer can check every byte without a copy.
func fillValue(buf []byte, guid int64, salt uint64) {
	x := uint64(guid)*0x9E3779B97F4A7C15 ^ salt
	for i := 0; i+8 <= len(buf); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(buf[i:], z^(z>>31))
	}
}
