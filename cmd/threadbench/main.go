// Command threadbench runs the ANL-style thread micro-benchmarks (paper
// Fig 14/15) against the real runtime: message rate and round-trip
// latency between two in-process ranks, comparing direct multithreaded
// MPI calls (MPI_THREAD_MULTIPLE: T goroutines per rank calling package
// mpi concurrently, contending on its real endpoint locks with no
// modelled cost) with HCMPI's funneling through the dedicated
// communication worker.
//
//	threadbench -threads 4 -msgs 20000
//
// (The calibrated paper-shape regeneration lives in the simulator:
// `experiments -run fig14`.)
package main

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
	"hcmpi/internal/netsim"
)

func main() {
	threads := flag.Int("threads", 4, "sender threads / computation workers")
	msgs := flag.Int("msgs", 10000, "messages per thread (rate test)")
	latency := flag.Duration("latency", 2*time.Microsecond, "modelled inter-node latency")
	flag.Parse()

	net := netsim.Params{InterLatency: *latency}

	// --- multithreaded MPI message rate (direct concurrent posting) ---
	mpiRate := func() float64 {
		w := mpi.NewWorld(2, mpi.WithNetwork(net))
		var elapsed time.Duration
		w.Run(func(c *mpi.Comm) {
			var wg sync.WaitGroup
			t0 := time.Now()
			for t := 0; t < *threads; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					if c.Rank() == 0 {
						for i := 0; i < *msgs; i++ {
							c.Isend([]byte{1}, 1, t)
						}
					} else {
						buf := make([]byte, 1)
						for i := 0; i < *msgs; i++ {
							c.Recv(buf, 0, t)
						}
					}
				}(t)
			}
			wg.Wait()
			if c.Rank() == 1 {
				elapsed = time.Since(t0)
			}
		})
		return float64(*threads**msgs) / elapsed.Seconds() / 1e6
	}()

	// --- HCMPI message rate (funneled through the comm worker) ---
	hcmpiRate := func() float64 {
		w := mpi.NewWorld(2, mpi.WithNetwork(net))
		var elapsed time.Duration
		w.Run(func(c *mpi.Comm) {
			n := hcmpi.NewNode(c, hcmpi.Config{Workers: *threads})
			n.Main(func(ctx *hc.Ctx) {
				t0 := time.Now()
				ctx.Finish(func(ctx *hc.Ctx) {
					for t := 0; t < *threads; t++ {
						t := t
						ctx.Async(func(ctx *hc.Ctx) {
							if n.Rank() == 0 {
								for i := 0; i < *msgs; i++ {
									n.Isend([]byte{1}, 1, t)
								}
							} else {
								buf := make([]byte, 1)
								for i := 0; i < *msgs; i++ {
									n.Recv(ctx, buf, 0, t)
								}
							}
						})
					}
				})
				if n.Rank() == 1 {
					elapsed = time.Since(t0)
				}
			})
			n.Close()
		})
		return float64(*threads**msgs) / elapsed.Seconds() / 1e6
	}()

	// --- ping-pong latency ---
	pingpong := func(useHCMPI bool) time.Duration {
		const iters = 2000
		var rtt time.Duration
		if useHCMPI {
			w := mpi.NewWorld(2, mpi.WithNetwork(net))
			w.Run(func(c *mpi.Comm) {
				n := hcmpi.NewNode(c, hcmpi.Config{Workers: 1})
				n.Main(func(ctx *hc.Ctx) {
					buf := make([]byte, 8)
					t0 := time.Now()
					for i := 0; i < iters; i++ {
						if n.Rank() == 0 {
							n.Send(ctx, buf, 1, 0)
							n.Recv(ctx, buf, 1, 1)
						} else {
							n.Recv(ctx, buf, 0, 0)
							n.Send(ctx, buf, 0, 1)
						}
					}
					if n.Rank() == 0 {
						rtt = time.Since(t0) / iters
					}
				})
				n.Close()
			})
			return rtt
		}
		w := mpi.NewWorld(2, mpi.WithNetwork(net))
		w.Run(func(c *mpi.Comm) {
			buf := make([]byte, 8)
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if c.Rank() == 0 {
					c.Send(buf, 1, 0)
					c.Recv(buf, 1, 1)
				} else {
					c.Recv(buf, 0, 0)
					c.Send(buf, 0, 1)
				}
			}
			if c.Rank() == 0 {
				rtt = time.Since(t0) / iters
			}
		})
		return rtt
	}

	fmt.Printf("threads=%d msgs/thread=%d latency=%v\n", *threads, *msgs, *latency)
	fmt.Printf("  message rate:  MPI(concurrent) %.3f M/s   HCMPI %.3f M/s\n", mpiRate, hcmpiRate)
	fmt.Printf("  ping-pong RTT: MPI %v   HCMPI %v\n",
		pingpong(false).Round(100*time.Nanosecond), pingpong(true).Round(100*time.Nanosecond))
}
