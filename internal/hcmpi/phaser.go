package hcmpi

import (
	"fmt"
	"sync"

	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
	"hcmpi/internal/phaser"
)

// hcmpi-phaser: the paper's unified system-wide collective operations.
// Tasks registered on an hcmpi-phaser synchronize both within the node
// (phaser tree) and across nodes (MPI barrier / allreduce driven by the
// communication worker) with a single next / accum_next.

// BarrierMode selects when the inter-node barrier starts relative to the
// intra-node phaser (paper §III-A).
type BarrierMode int

const (
	// Strict starts MPI_Barrier only after every local task has
	// signalled; the master then waits for it before releasing anyone.
	Strict BarrierMode = iota
	// Fuzzy starts MPI_Barrier as soon as the first local task arrives,
	// overlapping inter-node and intra-node synchronization; the master
	// only waits for its completion.
	Fuzzy
)

func (m BarrierMode) String() string {
	if m == Fuzzy {
		return "fuzzy"
	}
	return "strict"
}

// phaserGlue carries the in-flight inter-node operation for fuzzy mode.
type phaserGlue struct {
	mu      sync.Mutex
	pending *Request
}

// PhaserCreate builds an hcmpi-phaser (HCMPI_PHASER_CREATE): an intra-node
// phaser whose phase release is coupled to an inter-node MPI_Barrier
// executed by the communication worker. Every rank must create its own
// instance before participating in the global next.
func (n *Node) PhaserCreate(mode BarrierMode) *phaser.Phaser {
	g := &phaserGlue{}
	cfg := phaser.Config{Trace: n.phaserRing}
	switch mode {
	case Fuzzy:
		cfg.Hooks.OnFirstArrival = func(int64) {
			t := n.collTask()
			t.coll.Barrier()
			req := n.startCollective(t)
			g.mu.Lock()
			g.pending = req
			g.mu.Unlock()
		}
		cfg.Hooks.ExternalRelease = func(_ int64, local any) any {
			g.mu.Lock()
			req := g.pending
			g.pending = nil
			g.mu.Unlock()
			if req != nil {
				req.ddf.Await()
			}
			return local
		}
	case Strict:
		cfg.Hooks.ExternalRelease = func(_ int64, local any) any {
			t := n.collTask()
			t.coll.Barrier()
			n.collective(nil, t)
			return local
		}
	default:
		panic(fmt.Sprintf("hcmpi: barrier mode %d", mode))
	}
	return phaser.New(cfg)
}

// AccumCreate builds an hcmpi-accum (HCMPI_ACCUM_CREATE): tasks
// contribute values with AccumNext; the phase reduction is completed
// across ranks with MPI_Allreduce (the only inter-node model currently
// supported, as in the paper), and accum_get / Result returns the global
// value. Supported datatypes: mpi.Int64 (values int64) and mpi.Float64
// (values float64).
func (n *Node) AccumCreate(op mpi.Op, dt mpi.Datatype) *phaser.Phaser {
	combine := localCombiner(op, dt)
	cfg := phaser.Config{
		Trace:   n.phaserRing,
		Combine: combine,
		Hooks: phaser.Hooks{
			ExternalRelease: func(_ int64, local any) any {
				t := n.collTask()
				t.coll.Allreduce(encodeValue(local, dt, op), dt, op)
				return decodeValue(n.collective(nil, t).Payload, dt)
			},
		},
	}
	return phaser.New(cfg)
}

func localCombiner(op mpi.Op, dt mpi.Datatype) func(a, b any) any {
	switch dt {
	case mpi.Int64:
		return func(a, b any) any {
			buf := mpi.EncodeInt64(a.(int64))
			op.Combine(dt, buf, mpi.EncodeInt64(b.(int64)))
			return mpi.DecodeInt64(buf)
		}
	case mpi.Float64:
		return func(a, b any) any {
			buf := mpi.EncodeFloat64s([]float64{a.(float64)})
			op.Combine(dt, buf, mpi.EncodeFloat64s([]float64{b.(float64)}))
			return mpi.DecodeFloat64s(buf)[0]
		}
	}
	panic(fmt.Sprintf("hcmpi: accumulator datatype %s unsupported", dt.Name))
}

// encodeValue converts a locally reduced value to wire form; a nil local
// (no task contributed this phase) becomes the op's identity.
func encodeValue(v any, dt mpi.Datatype, op mpi.Op) []byte {
	if v == nil {
		v = identity(op, dt)
	}
	switch dt {
	case mpi.Int64:
		return mpi.EncodeInt64(v.(int64))
	case mpi.Float64:
		return mpi.EncodeFloat64s([]float64{v.(float64)})
	}
	panic("hcmpi: unsupported accumulator datatype")
}

func decodeValue(buf []byte, dt mpi.Datatype) any {
	switch dt {
	case mpi.Int64:
		return mpi.DecodeInt64(buf)
	case mpi.Float64:
		return mpi.DecodeFloat64s(buf)[0]
	}
	panic("hcmpi: unsupported accumulator datatype")
}

// identity returns op's neutral element for dt.
func identity(op mpi.Op, dt mpi.Datatype) any {
	switch dt {
	case mpi.Int64:
		switch op.Name {
		case "sum":
			return int64(0)
		case "prod":
			return int64(1)
		case "max":
			return int64(-1 << 62)
		case "min":
			return int64(1<<62 - 1)
		}
	case mpi.Float64:
		switch op.Name {
		case "sum":
			return float64(0)
		case "prod":
			return float64(1)
		case "max":
			return float64(-1e308)
		case "min":
			return float64(1e308)
		}
	}
	panic("hcmpi: no identity for op " + op.Name)
}

// AsyncPhased spawns fn registered on the phaser with the given mode (the
// paper's async phased(ph) construct). Registration happens in the parent
// before the child runs, and the registration is dropped when fn returns,
// so dynamic task sets compose safely with phases.
//
// Phased tasks suspend at every next, so they run on dedicated goroutines
// (hc.Ctx.AsyncBlocking) rather than pinning pool workers — the same
// effect as Habanero-C's blocking-capable workers.
func AsyncPhased(ctx *hc.Ctx, ph *phaser.Phaser, mode phaser.Mode, fn func(ctx *hc.Ctx, reg *phaser.Reg)) {
	reg := ph.Register(mode)
	ctx.AsyncBlocking(func(ctx *hc.Ctx) {
		defer reg.Drop()
		fn(ctx, reg)
	})
}
