package main

import "runtime"

// metricDef names one metric of BENCHMARK.json; the smoke test checks
// that the two lists below and the file agree.
type metricDef struct {
	name, unit string
	// from computes a per-layer metric from the traced pass.
	from func(l *layerInput) float64
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "op_p50_us", unit: "us"},
	{name: "op_tail_us", unit: "us"},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "peak_rss_mb", unit: "MiB"},
}

// layerInput is everything the traced pass of one workload gathered.
type layerInput struct {
	w     *workload
	in    *inputs
	c     counters // counter deltas, summed over the traced windows
	ops   float64  // ops of the traced windows
	wallS float64  // wall time of their timed parts
	sp    *spanStats
	pr    *probes

	tracedRate, untracedRate float64 // median ops/s of the traced and the untraced windows
}

func (l *layerInput) n(name string) float64     { return float64(l.c[name]) }
func (l *layerInput) perOp(name string) float64 { return ratio(l.n(name), l.ops) }
func (l *layerInput) share(a, b string) float64 { return ratio(l.n(a), l.n(a)+l.n(b)) }

// cores is how many processors the two solve workloads' 2 ranks × 1
// worker can use.
func cores() float64 { return float64(min(runtime.GOMAXPROCS(0), 2)) }

// busyShare is a per-worker time counter as a share of solve wall time ×
// workers (Table III).
func (l *layerInput) busyShare(name string) float64 {
	return ratio(l.n(name), l.wallS*1e9*2)
}

func (l *layerInput) cellsPerS() float64 {
	if l.w.name != "sw_dddf" {
		return 0
	}
	return ratio(l.ops*float64(l.in.sw.LenA)*float64(l.in.sw.LenB), l.wallS)
}

func positive(x, minus float64) float64 {
	if x == 0 {
		return 0
	}
	return x - minus
}

// perLayer lists the per-layer metrics: <layer>.<metric>, layers being
// the repo's modules. Sources are (a) spans around the benchmark's own
// calls, (b) deltas of counters the program exposes, (c) ladder probes.
var perLayer = []metricDef{
	{"hc.spawn_join_ns", "ns", func(l *layerInput) float64 { return l.pr.spawnJoinNS }},
	{"hc.await_ns", "ns", func(l *layerInput) float64 { return l.pr.awaitNS }},
	{"hc.tasks_run_per_op", "count", func(l *layerInput) float64 { return l.perOp("hc_tasks_run") }},
	{"hc.steal_success_ratio", "ratio", func(l *layerInput) float64 { return ratio(l.n("hc_steals"), l.n("hc_steal_attempts")) }},
	{"hc.parks_per_op", "count", func(l *layerInput) float64 { return l.perOp("hc_parks") }},
	{"deque.push_pop_ns", "ns", func(l *layerInput) float64 { return l.pr.dequeNS }},

	{"netsim.rtt_p50_us", "us", func(l *layerInput) float64 { return l.pr.netsimRTT50 }},
	{"netsim.msgs_per_op", "count", func(l *layerInput) float64 { return l.perOp("netsim_msgs") }},
	{"netsim.bytes_per_op", "B", func(l *layerInput) float64 { return l.perOp("netsim_bytes") }},

	{"mpi.rtt_p50_us", "us", func(l *layerInput) float64 { return l.pr.mpiRTT50 }},
	{"mpi.rtt_p99_us", "us", func(l *layerInput) float64 { return l.pr.mpiRTT99 }},
	{"mpi.msg_rate_per_s", "1/s", func(l *layerInput) float64 { return l.pr.mpiRate }},
	{"mpi.stream_mb_s", "MB/s", func(l *layerInput) float64 { return l.pr.mpiStreamMBs }},
	{"mpi.allreduce_p50_us", "us", func(l *layerInput) float64 { return l.pr.mpiAllreduce50 }},
	{"mpi.req_pool_hit_ratio", "ratio", func(l *layerInput) float64 { return l.share("mpi_req_pool_hit", "mpi_req_pool_miss") }},

	{"mpi.tcp.rtt_p50_us", "us", func(l *layerInput) float64 { return l.pr.tcpRTT50 }},
	{"mpi.tcp.stream_mb_s", "MB/s", func(l *layerInput) float64 { return l.pr.tcpStreamMBs }},
	{"mpi.tcp.frames_per_flush", "count", func(l *layerInput) float64 {
		return ratio(l.n("comm_tcp_frames_sent"), l.n("comm_tcp_flush_batches"))
	}},
	{"mpi.tcp.queue_hwm", "count", func(l *layerInput) float64 { return l.n("comm_tcp_queue_hwm") }},
	{"mpi.tcp.wire_overhead_ratio", "ratio", func(l *layerInput) float64 {
		return ratio(l.n("comm_tcp_bytes_sent"), l.ops*streamBytes)
	}},
	{"mpi.tcp.mesh_bringup_ms", "ms", func(l *layerInput) float64 { return l.sp.meanNS("mpi.Distributed") / 1e6 }},

	{"bufpool.hit_ratio", "ratio", func(l *layerInput) float64 { return l.share("buf_pool_hit", "buf_pool_miss") }},
	{"bufpool.bytes_per_op", "B", func(l *layerInput) float64 { return l.perOp("buf_pool_bytes") }},

	{"hcmpi.rtt_self_p50_us", "us", func(l *layerInput) float64 { return l.pr.hcmpiRTT50 - l.pr.mpiRTT50 }},
	{"hcmpi.msg_rate_ratio", "ratio", func(l *layerInput) float64 { return ratio(l.pr.hcmpiRate, l.pr.mpiRate) }},
	{"hcmpi.allreduce_self_p50_us", "us", func(l *layerInput) float64 { return l.pr.hcmpiAllreduce - l.pr.mpiAllreduce50 }},
	{"hcmpi.isend_post_ns", "ns", func(l *layerInput) float64 { return l.sp.meanNS("hcmpi.Isend") }},
	{"hcmpi.wait_block_us", "us", func(l *layerInput) float64 {
		return l.sp.meanNS("hcmpi.Wait", "hcmpi.WaitAll", "hcmpi.Recv") / 1e3
	}},
	{"hcmpi.polls_per_op", "count", func(l *layerInput) float64 { return l.perOp("comm_polls") }},
	{"hcmpi.dispatch_per_op", "count", func(l *layerInput) float64 { return l.perOp("comm_dispatched") }},
	{"hcmpi.task_recycle_ratio", "ratio", func(l *layerInput) float64 { return l.share("comm_recycled", "comm_allocated") }},
	{"hcmpi.retries", "count", func(l *layerInput) float64 { return l.n("comm_retries") }},
	{"hcmpi.timeouts", "count", func(l *layerInput) float64 { return l.n("comm_timeouts") }},
	{"hcmpi.failures", "count", func(l *layerInput) float64 { return l.n("comm_failures") }},
	{"hcmpi.node_bringup_us", "us", func(l *layerInput) float64 { return l.sp.meanNS("hcmpi.NewNode") / 1e3 }},
	{"hcmpi.node_close_us", "us", func(l *layerInput) float64 { return l.sp.meanNS("hcmpi.Close") / 1e3 }},

	{"phaser.next_strict_p50_us", "us", func(l *layerInput) float64 { return l.pr.phaserStrict }},
	{"phaser.next_fuzzy_p50_us", "us", func(l *layerInput) float64 { return l.pr.phaserFuzzy }},
	{"phaser.accum_next_p50_us", "us", func(l *layerInput) float64 { return l.pr.accum }},

	{"dddf.pull_p50_us", "us", func(l *layerInput) float64 { return l.sp.p50NS("dddf.await_to_run") / 1e3 }},
	{"dddf.push_p50_us", "us", func(l *layerInput) float64 { return l.sp.p50NS("dddf.put_to_run") / 1e3 }},
	{"dddf.fetch_self_p50_us", "us", func(l *layerInput) float64 {
		return positive(l.sp.p50NS("dddf.await_to_run")/1e3, l.pr.hcmpiRTT50)
	}},
	{"dddf.registers_per_op", "count", func(l *layerInput) float64 { return l.perOp("dddf_registers") }},
	{"dddf.data_msgs_per_op", "count", func(l *layerInput) float64 { return l.perOp("dddf_data") }},
	{"dddf.local_await_ns", "ns", func(l *layerInput) float64 { return l.pr.dddfLocalNS }},

	{"distsched.frame_ns", "ns", func(l *layerInput) float64 { return l.pr.distFrameNS }},
	{"distsched.steal_req_per_solve", "count", func(l *layerInput) float64 { return l.perOp("dist_steal_req_sent") }},
	{"distsched.grant_ratio", "ratio", func(l *layerInput) float64 {
		return ratio(l.n("dist_steal_grants_in"), l.n("dist_steal_req_sent"))
	}},
	{"distsched.migrated_per_solve", "count", func(l *layerInput) float64 { return l.perOp("dist_steal_tasks_migrated") }},
	{"distsched.local_steals_per_solve", "count", func(l *layerInput) float64 { return l.perOp("dist_local_steals") }},
	{"distsched.term_rounds_per_solve", "count", func(l *layerInput) float64 { return l.perOp("dist_term_rounds") }},
	{"distsched.search_share", "ratio", func(l *layerInput) float64 { return l.busyShare("uts_search_ns") }},

	{"uts.seq_nodes_per_s", "1/s", func(l *layerInput) float64 { return l.in.seqNodesPerS }},
	{"uts.nodes_per_s", "1/s", func(l *layerInput) float64 { return ratio(l.n("uts_nodes"), l.wallS) }},
	{"uts.parallel_efficiency", "ratio", func(l *layerInput) float64 {
		return ratio(ratio(l.n("uts_nodes"), l.wallS), l.in.seqNodesPerS*cores())
	}},
	{"uts.work_share", "ratio", func(l *layerInput) float64 { return l.busyShare("uts_work_ns") }},
	{"uts.overhead_share", "ratio", func(l *layerInput) float64 { return l.busyShare("uts_overhead_ns") }},
	{"uts.search_share", "ratio", func(l *layerInput) float64 { return l.busyShare("uts_search_ns") }},

	{"sw.seq_cells_per_s", "1/s", func(l *layerInput) float64 { return l.in.seqCellsPerS }},
	{"sw.cells_per_s", "1/s", func(l *layerInput) float64 { return l.cellsPerS() }},
	{"sw.parallel_efficiency", "ratio", func(l *layerInput) float64 {
		return ratio(l.cellsPerS(), l.in.seqCellsPerS*cores())
	}},
	{"sw.compute_floor_share", "ratio", func(l *layerInput) float64 {
		// tiles × probed ComputeTile time, as a share of solve wall × cores
		return ratio(l.cellsPerS()/(swInner*swInner)*l.pr.swTileNS/1e9, cores())
	}},

	{"runtime.allocs_per_op", "count", func(l *layerInput) float64 { return l.perOp("rt_mallocs") }},
	{"runtime.alloc_bytes_per_op", "B", func(l *layerInput) float64 { return l.perOp("rt_alloc_bytes") }},
	{"runtime.gc_cycles", "count", func(l *layerInput) float64 { return l.n("rt_gc_cycles") }},
	{"runtime.gc_pause_total_us", "us", func(l *layerInput) float64 { return l.n("rt_gc_pause_ns") / 1e3 }},
	{"runtime.goroutines_peak", "count", func(l *layerInput) float64 { return l.n("rt_goroutines_hwm") }},

	{"bench.trace_overhead_ratio", "ratio", func(l *layerInput) float64 { return ratio(l.tracedRate, l.untracedRate) }},
	{"bench.clock_ns", "ns", func(l *layerInput) float64 { return l.pr.clockNS }},
	{"bench.gen_s", "s", func(l *layerInput) float64 { return l.in.genS }},
}

func layerMetrics(l *layerInput) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = m.from(l)
	}
	return out
}
