// Package uts implements the Unbalanced Tree Search benchmark (Olivier et
// al., LCPC'06) and the three distributed implementations the paper
// compares: the reference MPI work-stealing version (Dinan et al.,
// IPDPS'07), the HCMPI port with intra-node work stealing plus a
// dedicated communication worker, and the improved MPI+OpenMP hybrid with
// a cancellable barrier.
//
// UTS counts the nodes of an implicitly defined random tree. Each node's
// children are determined by a splittable hash of its ancestry, so any
// subtree can be explored given only its root descriptor — which is what
// makes the benchmark a pure dynamic-load-balancing stress test.
package uts

import (
	"crypto/sha1"
	"encoding/binary"
	"math"
)

// TreeType selects the branching process.
type TreeType int

const (
	// Geometric trees draw each node's child count from a geometric
	// distribution whose mean decays with depth (shape function), cut off
	// at GenMx.
	Geometric TreeType = iota
	// Binomial trees give every non-root node M children with probability
	// Q and none otherwise; the root always has B0 children.
	Binomial
)

// Shape is the geometric tree's branching-decay law.
type Shape int

const (
	// ShapeFixed keeps the expected branching factor constant up to the
	// depth cutoff.
	ShapeFixed Shape = iota
	// ShapeLinear decays the expected branching factor linearly to zero
	// at the depth cutoff.
	ShapeLinear
)

// HashKind selects the splittable RNG.
type HashKind int

const (
	// HashSHA1 is the UTS reference RNG: child state = SHA-1(parent
	// state ‖ child index). Deterministic across platforms, expensive.
	HashSHA1 HashKind = iota
	// HashSplitMix is a fast splitmix64-based splittable generator for
	// large runs where SHA-1 cost would dominate.
	HashSplitMix
)

// Config describes one UTS tree.
type Config struct {
	Name  string
	Type  TreeType
	Hash  HashKind
	Seed  int64
	B0    int     // root branching factor
	GenMx int     // geometric: depth cutoff
	Shape Shape   // geometric: decay law
	Q     float64 // binomial: child probability
	M     int     // binomial: children per internal node
}

// Paper workloads (parameters from the UTS distribution). Their exact
// sizes — T1XXL ≈ 4.23 billion nodes, T3XXL ≈ 3.0 billion — are far
// beyond a laptop; the scaled variants below keep the same branching
// processes at tractable sizes and are what the tests and default
// benchmarks use.
var (
	// T1XXL: geometric with fixed branching (UTS shape a=3), depth 15,
	// b0=4 — ~4.2B nodes.
	T1XXL = Config{Name: "T1XXL", Type: Geometric, Hash: HashSHA1, Seed: 29, B0: 4, GenMx: 15, Shape: ShapeFixed}
	// T3XXL: binomial, ~3.0B nodes.
	T3XXL = Config{Name: "T3XXL", Type: Binomial, Hash: HashSHA1, Seed: 316, B0: 2000, Q: 0.499995, M: 2}

	// T1Small is a laptop-scale geometric tree (tens of thousands of
	// nodes with SHA-1 determinism).
	T1Small = Config{Name: "T1Small", Type: Geometric, Hash: HashSHA1, Seed: 29, B0: 4, GenMx: 7, Shape: ShapeFixed}
	// T1Med is a mid-size geometric tree for benchmarks.
	T1Med = Config{Name: "T1Med", Type: Geometric, Hash: HashSplitMix, Seed: 29, B0: 4, GenMx: 9, Shape: ShapeFixed}
	// T3Small is a laptop-scale binomial tree; expected size about
	// B0/(1-Q·M) + 1.
	T3Small = Config{Name: "T3Small", Type: Binomial, Hash: HashSHA1, Seed: 42, B0: 500, Q: 0.124875, M: 8}
	// T3Med is a mid-size binomial tree for benchmarks.
	T3Med = Config{Name: "T3Med", Type: Binomial, Hash: HashSplitMix, Seed: 316, B0: 2000, Q: 0.24, M: 4}
	// T3Mid sits between T3Med and T3Big (~2M nodes): work-rich at a few
	// nodes, starved at a few hundred cores — the regime the default
	// simulator sweeps need.
	T3Mid = Config{Name: "T3Mid", Type: Binomial, Hash: HashSplitMix, Seed: 316, B0: 2000, Q: 0.2497, M: 4}
	// T1Big and T3Big approach the paper's regime for full simulator
	// sweeps (tens of millions of nodes; minutes per sweep).
	T1Big = Config{Name: "T1Big", Type: Geometric, Hash: HashSplitMix, Seed: 29, B0: 4, GenMx: 12, Shape: ShapeFixed}
	T3Big = Config{Name: "T3Big", Type: Binomial, Hash: HashSplitMix, Seed: 316, B0: 8000, Q: 0.2499, M: 4}
)

// descBytes is the node descriptor state width (SHA-1 digest size).
const descBytes = sha1.Size

// Node is one tree node descriptor: enough to enumerate its subtree.
type Node struct {
	State [descBytes]byte
	Depth int32
}

// encodedNodeSize is the wire size of a node descriptor.
const encodedNodeSize = descBytes + 4

// EncodeNodes packs descriptors for a steal-response message.
func EncodeNodes(ns []Node) []byte {
	return encodeNodes(make([]byte, len(ns)*encodedNodeSize), ns)
}

// encodeNodes packs ns into b, which must hold len(ns)*encodedNodeSize
// bytes, and returns b.
//
//hclint:hotpath
func encodeNodes(b []byte, ns []Node) []byte {
	for i := range ns {
		off := i * encodedNodeSize
		copy(b[off:], ns[i].State[:])
		binary.LittleEndian.PutUint32(b[off+descBytes:], uint32(ns[i].Depth))
	}
	return b
}

// DecodeNodes unpacks a steal-response message.
func DecodeNodes(b []byte) []Node {
	ns := make([]Node, len(b)/encodedNodeSize)
	for i := range ns {
		ns[i] = decodeNode(b[i*encodedNodeSize:])
	}
	return ns
}

// decodeNode unpacks the descriptor at the start of b.
func decodeNode(b []byte) (n Node) {
	copy(n.State[:], b[:descBytes])
	n.Depth = int32(binary.LittleEndian.Uint32(b[descBytes:]))
	return n
}

// The per-node methods below (Root, Child, childInto, value,
// NumChildren) take the Config by pointer: a node costs a few
// nanoseconds of hashing, and copying the 88-byte Config into every
// call would cost more than the hash (DESIGN.md §13).

// Root returns the tree's root descriptor.
func (c *Config) Root() Node {
	var n Node
	switch c.Hash {
	case HashSHA1:
		var seed [8]byte
		binary.LittleEndian.PutUint64(seed[:], uint64(c.Seed))
		n.State = sha1.Sum(seed[:])
	case HashSplitMix:
		binary.LittleEndian.PutUint64(n.State[:8], splitmix64(uint64(c.Seed)))
	}
	return n
}

// Child derives the i-th child's descriptor.
func (c *Config) Child(parent Node, i int) Node {
	var child Node
	c.childInto(&child, &parent, i)
	return child
}

// childInto writes the i-th child of parent into dst, every byte of it.
// It is the node kernel: nodeStack.expand derives every child straight
// into its stack slot with it. The child's state is splitmix64 of the
// parent's and i, or SHA-1(parent state ‖ i).
//
//hclint:hotpath
func (c *Config) childInto(dst, parent *Node, i int) {
	if c.Hash == HashSplitMix {
		s := binary.LittleEndian.Uint64(parent.State[:8])
		binary.LittleEndian.PutUint64(dst.State[:8], splitmix64(s^(uint64(i)*0x9E3779B97F4A7C15+0xD1B54A32D192ED03)))
		clear(dst.State[8:])
	} else {
		var in [descBytes + 4]byte
		copy(in[:], parent.State[:])
		binary.LittleEndian.PutUint32(in[descBytes:], uint32(i))
		dst.State = sha1.Sum(in[:])
	}
	dst.Depth = parent.Depth + 1
}

// value extracts the node's uniform variate in [0,1).
func (c *Config) value(n *Node) float64 {
	v := binary.LittleEndian.Uint64(n.State[:8])
	if c.Hash == HashSplitMix {
		v = splitmix64(v ^ 0xA3EC647659359ACD)
	}
	return float64(v>>11) / float64(1<<53)
}

// NumChildren evaluates the branching process at n.
//
//hclint:hotpath
func (c *Config) NumChildren(n Node) int {
	switch c.Type {
	case Geometric:
		if int(n.Depth) >= c.GenMx {
			return 0
		}
		b := float64(c.B0)
		if c.Shape == ShapeLinear {
			b = float64(c.B0) * (1 - float64(n.Depth)/float64(c.GenMx))
		}
		if b <= 0 {
			return 0
		}
		// Geometric distribution with mean b: P(k) = p(1-p)^k,
		// p = 1/(1+b); inverse-transform sampling.
		p := 1 / (1 + b)
		u := c.value(&n)
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		return int(math.Floor(math.Log(1-u) / math.Log(1-p)))
	case Binomial:
		if n.Depth == 0 {
			return c.B0
		}
		if c.value(&n) < c.Q {
			return c.M
		}
		return 0
	}
	return 0
}

// ExpectedSize returns the analytic expected node count (binomial trees
// only; geometric sizes are found empirically).
func (c Config) ExpectedSize() float64 {
	if c.Type != Binomial {
		return math.NaN()
	}
	mean := c.Q * float64(c.M)
	if mean >= 1 {
		return math.Inf(1)
	}
	return 1 + float64(c.B0)/(1-mean)
}

// SeqCount explores the whole tree sequentially and returns the node
// count and maximum depth — the ground truth the parallel versions must
// reproduce exactly. It runs the parallel ports' own kernel,
// nodeStack.expand, in one unbounded slice.
func (c Config) SeqCount() (nodes int64, maxDepth int32) {
	var s nodeStack
	var ctr Counters
	s.push(c.Root())
	s.expand(&c, math.MaxInt, &ctr)
	return ctr.Nodes, ctr.MaxDepth
}

// splitmix64 is the standard splitmix64 finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
