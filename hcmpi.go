// Package hcmpi is a from-scratch Go reproduction of "Integrating
// Asynchronous Task Parallelism with MPI" (Chatterjee et al., IPDPS
// 2013): the HCMPI programming model and runtime, which unify
// Habanero-C-style intra-node task parallelism (async/finish, data-driven
// futures, phasers) with MPI-style inter-node message passing through a
// dedicated communication worker per rank.
//
// This root package is the stable public facade. The machinery lives in
// internal packages:
//
//	internal/hc     — work-stealing task runtime (async/finish/DDF/DDT)
//	internal/phaser — phasers and accumulators
//	internal/mpi    — the message-passing substrate (ranks simulated
//	                  in-process over a modelled interconnect)
//	internal/hcmpi  — the HCMPI integration: communication worker,
//	                  HCMPI_* API, hcmpi-phaser, hcmpi-accum
//	internal/dddf   — distributed data-driven futures (APGNS)
//	internal/sim    — the discrete-event simulator behind the paper's
//	                  evaluation (see DESIGN.md)
//
// # Quickstart
//
//	hcmpi.Run(2, 4, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
//	    if n.Rank() == 0 {
//	        n.Send(ctx, []byte("hello"), 1, 0)
//	    } else {
//	        buf := make([]byte, 8)
//	        st := n.Recv(ctx, buf, 0, 0)
//	        fmt.Printf("rank 1 got %q\n", buf[:st.Bytes])
//	    }
//	})
//
// See examples/ for dataflow (DDDF), reduction (hcmpi-accum), and
// wavefront programs.
package hcmpi

import (
	"time"

	"hcmpi/internal/dddf"
	"hcmpi/internal/distsched"
	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
	"hcmpi/internal/netsim"
	"hcmpi/internal/phaser"
	"hcmpi/internal/trace"
)

// Re-exported core types. The paper's C-style names map as:
// HCMPI_Request → *Request, HCMPI_Status → *Status, DDF_t → *DDF,
// async/finish → Ctx.Async / Ctx.Finish, async await → Ctx.AsyncAwait.
type (
	// Node is one HCMPI process: computation workers plus the dedicated
	// communication worker, bound to an MPI rank.
	Node = hcmpi.Node
	// Ctx is the execution context of a task (current worker + finish
	// scope).
	Ctx = hc.Ctx
	// Request is an HCMPI request handle (a DDF completed by the
	// communication worker).
	Request = hcmpi.Request
	// Status is an HCMPI completion status.
	Status = hcmpi.Status
	// DDF is a shared-memory data-driven future.
	DDF = hc.DDF
	// Phaser is the point-to-point/collective synchronization construct;
	// hcmpi-phasers couple it to inter-node MPI operations.
	Phaser = phaser.Phaser
	// PhaserMode is a registration capability (SignalWait &c).
	PhaserMode = phaser.Mode
	// PhaserReg is one task's registration on a phaser.
	PhaserReg = phaser.Reg
	// Win is a one-sided communication window (HCMPI_Win_create).
	Win = hcmpi.Win
	// DDDFSpace is the distributed data-driven future namespace.
	DDDFSpace = dddf.Space
	// DDDF is a handle on a distributed data-driven future.
	DDDF = dddf.Handle
	// NetworkParams models the interconnect (latency/bandwidth classes).
	NetworkParams = netsim.Params
	// Faults is a deterministic fault-injection schedule for the
	// interconnect: seeded per-link drop/duplication/delay-spike
	// probabilities and partition windows. Replay a failing chaos run by
	// reusing its seed.
	Faults = netsim.Faults
	// FaultPartition blackholes a link for a window of messages.
	FaultPartition = netsim.Partition
	// Datatype and Op type reductions (HCMPI_INT / HCMPI_SUM ...).
	Datatype = mpi.Datatype
	// Op is a reduction operator.
	Op = mpi.Op
	// Tracer records a runtime timeline (per-worker event rings); export
	// it with WriteChromeFile (Perfetto) or WriteReport (text summary).
	Tracer = trace.Tracer
	// Metrics is the unified named-counter registry; every Node exposes
	// one via Node.Metrics().
	Metrics = trace.Metrics
	// DistScheduler is the runtime-level distributed work-stealing
	// scheduler: register migratable task kinds, submit seeds, and Run
	// drives every rank to global termination (Safra's algorithm).
	DistScheduler = distsched.Scheduler
	// DistTaskCtx is the execution context handed to migratable task
	// handlers.
	DistTaskCtx = distsched.TaskCtx
	// DistStats is a point-in-time snapshot of one rank's distributed
	// scheduling counters.
	DistStats = distsched.Stats
)

// Phaser registration modes and barrier flavours.
const (
	SignalWait = phaser.SignalWait
	SignalOnly = phaser.SignalOnly
	WaitOnly   = phaser.WaitOnly
)

// Barrier modes for PhaserCreate.
const (
	Strict = hcmpi.Strict
	Fuzzy  = hcmpi.Fuzzy
)

// Reduction operators and datatypes (HCMPI_SUM, HCMPI_INT, ...).
var (
	OpSum   = mpi.OpSum
	OpProd  = mpi.OpProd
	OpMin   = mpi.OpMin
	OpMax   = mpi.OpMax
	Int64   = mpi.Int64
	Float64 = mpi.Float64
	Byte    = mpi.Byte
)

// Matching wildcards.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Fault-plane sentinel errors, surfaced on Status.Err. A failed operation
// still completes its request DDF — awaiting tasks run and finish scopes
// drain — so programs observe faults as values, never as hangs.
var (
	// ErrTimeout: the operation overran Config.OpTimeout.
	ErrTimeout = mpi.ErrTimeout
	// ErrRankFailed: the peer rank crashed (fail-stop).
	ErrRankFailed = mpi.ErrRankFailed
	// ErrMessageDropped: the network dropped the message and every one
	// of the MPI layer's retransmissions of it (a partition that does
	// not heal).
	ErrMessageDropped = mpi.ErrMessageDropped
)

// NewDDF creates an empty shared-memory data-driven future (DDF_CREATE).
func NewDDF() *DDF { return hc.NewDDF() }

// NewTracer creates a tracer with default ring sizing; pass it through
// Config.Tracer to record a job timeline.
func NewTracer() *Tracer { return trace.New(trace.Config{}) }

// NewMetrics creates an empty counter registry — handy for aggregating
// several ranks' Node.Metrics() with Metrics.Merge.
func NewMetrics() *Metrics { return trace.NewMetrics() }

// NewDistScheduler attaches a distributed work-stealing scheduler to a
// node. Create it before Node.Main (it installs communication-worker
// listeners), then call Run from inside the main task on every rank.
func NewDistScheduler(n *Node, _ DistConfig) *DistScheduler {
	return distsched.New(n)
}

// DistConfig is NewDistScheduler's empty parameter block. The scheduler
// has nothing to configure: victims are picked at random among the live
// ranks, and the grant cap and steal re-arm time are constants
// (DESIGN.md §13). The type stays only so that existing callers'
// DistConfig{} still compiles.
type DistConfig struct{}

// AsyncPhased spawns a task registered on a phaser (async phased(ph)).
var AsyncPhased = hcmpi.AsyncPhased

// Config parameterizes an HCMPI job.
type Config struct {
	// Workers is the number of computation workers per rank (one extra
	// core per rank is the communication worker).
	Workers int
	// Net selects the modelled interconnect; zero value is a no-delay
	// loopback.
	Net NetworkParams
	// RanksPerNode places consecutive ranks on a common "node" for
	// intra- vs inter-node link classes (default 1).
	RanksPerNode int
	// Faults, when non-nil, installs a deterministic fault-injection
	// schedule on the interconnect (chaos testing). Zero-valued faults
	// inject nothing and cost nothing.
	Faults *Faults
	// OpTimeout bounds every communication operation: instead of
	// blocking forever under a partition or crashed rank, the operation
	// fails with ErrTimeout in its Status. 0 disables timeouts.
	OpTimeout time.Duration
	// Tracer, when non-nil, records the job's timeline: every rank's
	// computation workers, communication worker, MPI endpoint, and the
	// interconnect fault plane. Nil disables tracing at (near) zero cost.
	Tracer *Tracer
}

// Run launches an SPMD HCMPI job of `ranks` ranks in-process, each with
// `workers` computation workers, runs body as every rank's main task,
// and tears the job down (global termination included). It is the
// moral equivalent of mpirun on this substrate.
func Run(ranks, workers int, body func(n *Node, ctx *Ctx)) {
	RunConfig(ranks, Config{Workers: workers}, body)
}

// RunConfig is Run with full control over the job configuration.
func RunConfig(ranks int, cfg Config, body func(n *Node, ctx *Ctx)) {
	w := mpi.NewWorld(ranks, cfg.worldOptions()...)
	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, cfg.nodeConfig())
		n.Main(func(ctx *hc.Ctx) { body(n, ctx) })
		n.Close()
	})
}

func (cfg Config) worldOptions() []mpi.Option {
	opts := []mpi.Option{mpi.WithNetwork(cfg.Net)}
	if cfg.RanksPerNode > 0 {
		opts = append(opts, mpi.WithRanksPerNode(cfg.RanksPerNode))
	}
	if cfg.Faults != nil {
		opts = append(opts, mpi.WithFaults(*cfg.Faults))
	}
	if cfg.Tracer != nil {
		opts = append(opts, mpi.WithTracer(cfg.Tracer))
	}
	return opts
}

func (cfg Config) nodeConfig() hcmpi.Config {
	return hcmpi.Config{Workers: cfg.Workers, OpTimeout: cfg.OpTimeout,
		Tracer: cfg.Tracer}
}

// RunDistributed joins this OS process as one rank of a real multi-process
// HCMPI job over TCP: addrs[i] is rank i's listen address, identical
// across all processes. The call blocks until the mesh is up, runs body
// as this rank's main task, and tears everything down (including the
// global termination barrier). Everything available in-process — point to
// point, collectives, phasers, accumulators, RMA, DDDFs — works over the
// wire unchanged.
func RunDistributed(rank int, addrs []string, workers int, body func(n *Node, ctx *Ctx)) error {
	return RunDistributedConfig(rank, addrs, Config{Workers: workers}, body)
}

// RunDistributedConfig is RunDistributed with full control over the job
// configuration. The netsim-only knobs (Net, RanksPerNode, Faults) do
// not apply over TCP and are ignored; Tracer attaches the rank's MPI
// endpoint and worker tracks to a timeline the caller can export.
func RunDistributedConfig(rank int, addrs []string, cfg Config, body func(n *Node, ctx *Ctx)) error {
	var opts []mpi.DistOption
	if cfg.Tracer != nil {
		opts = append(opts, mpi.WithMeshTracer(cfg.Tracer))
	}
	c, closer, err := mpi.Distributed(rank, addrs, opts...)
	if err != nil {
		return err
	}
	n := hcmpi.NewNode(c, cfg.nodeConfig())
	n.Main(func(ctx *hc.Ctx) { body(n, ctx) })
	n.Close()
	return closer.Close()
}

// RunDDDF launches an SPMD job with a distributed data-driven future
// namespace (the APGNS model): home maps guids to ranks (DDF_HOME), size
// optionally validates put sizes (DDF_SIZE).
func RunDDDF(ranks int, cfg Config, home func(guid int64) int, size func(guid int64) int,
	body func(s *DDDFSpace, ctx *Ctx)) {
	w := mpi.NewWorld(ranks, cfg.worldOptions()...)
	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, cfg.nodeConfig())
		var sz dddf.SizeFunc
		if size != nil {
			sz = size
		}
		s := dddf.NewSpace(n, home, sz)
		n.Main(func(ctx *hc.Ctx) { body(s, ctx) })
		n.Close()
	})
}
