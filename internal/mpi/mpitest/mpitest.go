// Package mpitest is the cross-transport conformance harness: it runs
// one SPMD test body over every Comm transport the repo ships — the
// in-process netsim world and a same-process multi-Comm TCP loopback
// mesh — so a single test corpus proves both backends behave
// identically. Higher layers (hcmpi, dddf) reuse the same backends for
// their own corpora.
package mpitest

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hcmpi/internal/mpi"
)

// Backend runs an SPMD body, one invocation per rank, over one
// transport. Run blocks until every rank's body returns and the
// transport is torn down.
type Backend struct {
	Name string
	Run  func(t testing.TB, ranks int, body func(c *mpi.Comm))
}

// Backends returns every transport a conformance corpus must pass on.
func Backends() []Backend {
	return []Backend{
		{Name: "netsim", Run: runNetsim},
		{Name: "tcp", Run: runTCP},
	}
}

func runNetsim(t testing.TB, ranks int, body func(c *mpi.Comm)) {
	t.Helper()
	w := mpi.NewWorld(ranks)
	w.Run(body)
}

// FreeAddrs grabs n distinct free localhost listen addresses.
func FreeAddrs(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func runTCP(t testing.TB, ranks int, body func(c *mpi.Comm)) {
	t.Helper()
	addrs := FreeAddrs(t, ranks)
	var wg sync.WaitGroup
	errs := make(chan error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, closer, err := mpi.Distributed(r, addrs,
				mpi.WithDialTimeout(10*time.Second))
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			body(c)
			c.Barrier() // settle all traffic before teardown
			closer.Close()
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
