GO ?= go

.PHONY: tier1 tier1-debug verify test chaos soak soak-msgflood lint vet trace-demo bench-smoke conformance smoke-distributed

# Fast correctness gate: what the seed repo guarantees.
tier1:
	$(GO) build ./... && $(GO) test ./...

# tier1 with runtime assertions compiled in (internal/invariant) and the
# race detector on: the deque, free-list, and mpi commit-point invariants
# are actually checked instead of compiled away.
tier1-debug:
	$(GO) build -tags hcmpi_debug ./... && \
	$(GO) test -tags hcmpi_debug -race -count=1 ./internal/...

# Full CI gate: vet + the entire suite (chaos tests included) under the
# race detector, uncached.
verify:
	$(GO) vet ./... && $(GO) test -race -count=1 ./...

test:
	$(GO) test ./...

# Just the fault-injection suites (they honor -short; this runs them long),
# plus the progress-engine contention tests: computation workers and the
# dedicated worker racing for the sweep (TestChaosProgressContention), the
# idle-hook/idleMu ordering rule (TestIdleHook...), a join, a blocked task
# and an idle worker each woken after it has parked (TestIdleWake...),
# and blocking tasks that stack up crosswise (TestBlock...,
# TestRecycleStress...), and the
# aggregated-frame tests: bursts, cap splits and dropped frames through
# hcmpi.Outbox and the DDDF protocol on top of it (TestOutbox...,
# TestBurst..., TestChaosFrameDrop...), and the collective schedules the
# sweep advances: collectives issued concurrently and timed out, and the
# phaser and accumulator hooks that issue them (Collective, Phaser,
# Accumulator).
chaos:
	$(GO) test -race -count=1 -run 'Chaos|IdleHook|IdleWake|TestBlock|RecycleStress|TestFault|TestOutbox|TestBurst|Collective|Phaser|Accumulator|Test.*(Drop|Partition|Crash|Stall|Cancel)' \
		./internal/netsim/ ./internal/mpi/ ./internal/hc/ ./internal/hcmpi/ ./internal/dddf/ ./internal/distsched/

# Soak for the one-in-10⁴ class (ROADMAP item 2): the shape distsched's
# early termination was found in — 20 000 short UTS jobs at 2 ranks × 2
# workers on 4 Ps, each checked against the sequential node count —
# then the census tests (the deterministic frame-in-hand cases and the
# 2 × 4-worker soak) 200 times over under the race detector, then the
# trace ring's multi-writer tests 50 times over under the race detector
# (before the slot claim, a writer lapped on its slot tore the newer
# writer's event within 200 rounds of TestRingLappedWriterDropsNotTears
# in most race runs), then the dedicated worker's wake-word tests 50
# times over under the race detector (a lost wake-up is a once-in-N
# hang: each test guards one kick and fails at its 5 s bound).
soak:
	$(GO) test -run '^$$' -bench BenchmarkRealUTSHCMPI -benchtime 20000x -cpu 4 .
	$(GO) test -race -count=200 -run 'TestCensus' ./internal/distsched/ ./internal/uts/
	$(GO) test -race -count=50 -run 'TestRing' ./internal/trace/
	$(GO) test -race -count=50 -run 'TestQuietWake|TestCloseAfterStolenSweeps' ./internal/hcmpi/

# Twenty traced msgflood_8b runs (seeds 1-20), the shape in which one
# traced run in twelve once hung with its stderr lost. The benchmark is
# built once; each run is bounded at 300 s, so a hang ends in exit 124
# instead of stalling the loop, and each run's stdout and stderr stay in
# a temporary directory. A non-zero exit or a "correct":false result
# line fails the target and prints that run's stderr tail.
soak-msgflood:
	@dir=$$(mktemp -d /tmp/hcmpi-soak-msgflood.XXXXXX); \
	$(GO) build -o $$dir/hcbench ./benchmark || exit 1; \
	for n in $$(seq 1 20); do \
		timeout 300 $$dir/hcbench --workload msgflood_8b --trace 1 --seconds 8 --seed $$n \
			>$$dir/seed$$n.out 2>$$dir/seed$$n.err; rc=$$?; \
		if [ $$rc -ne 0 ] || grep -q '"correct":false' $$dir/seed$$n.out; then \
			echo "soak-msgflood: seed $$n failed (exit $$rc); logs in $$dir"; \
			tail -n 40 $$dir/seed$$n.err; exit 1; \
		fi; \
		echo "soak-msgflood: seed $$n ok"; \
	done; \
	echo "soak-msgflood: 20 runs ok; logs in $$dir"

# Cross-transport conformance: the p2p/collectives/RMA/hcmpi/DDDF
# corpora over both backends (netsim and the TCP loopback mesh), plus
# the TCP transport's own failure/backpressure suite, under the race
# detector.
conformance:
	$(GO) test -race -count=1 -run 'Conformance|TestTCP' \
		./internal/mpi/ ./internal/hcmpi/ ./internal/dddf/ ./internal/distsched/

# Real multi-process smoke: hcmpirun across 4 OS processes (demo
# program, rank-kill chaos, distributed-scheduler steal smoke and
# dist-chaos, per-rank trace export).
smoke-distributed:
	$(GO) test -count=1 -v ./cmd/hcmpirun/

# Static analysis gate: go vet (its testinggoroutine pass covers
# t.Fatal off the test goroutine) plus hclint's nine HCMPI-specific
# analyzers — three intra-procedural (lifecycle, ddf-once,
# hotpath-alloc), four over the module call graph (lock-order,
# nonblocking, tag-space, goroutine-leak), and two forward dataflow
# analyzers over per-function CFGs (buffer-reuse,
# collective-divergence). -stats prints per-analyzer finding counts and
# wall time; -audit-allow additionally fails the build on any
# //hclint:allow comment that suppresses nothing, so stale waivers
# cannot accumulate. Non-zero exit on any finding.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/hclint -stats -audit-allow .

vet:
	$(GO) vet ./...

# CI smoke: every benchmark at a fixed tiny iteration count. Catches
# benchmarks that panic or deadlock without asserting on timing (shared
# runners are too noisy for that); allocation regressions are pinned by
# the AllocsPerRun tests instead.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=100x -count=1 .

# Produce a traced UTS timeline and validate the exporter's invariants
# (monotonic timestamps per track, balanced slices) with tracecheck.
trace-demo:
	$(GO) run ./cmd/uts -impl hcmpi -ranks 2 -workers 2 -tree t1small \
		-trace /tmp/hcmpi-trace-demo.json -report
	$(GO) run ./cmd/tracecheck /tmp/hcmpi-trace-demo.json
