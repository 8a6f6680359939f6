// Quickstart: the HCMPI model in one file.
//
// Two ranks run in-process (the library's mpirun equivalent). Each rank
// has computation workers plus a dedicated communication worker; all
// communication calls create asynchronous communication tasks, and the
// Habanero constructs — async, finish, await — synchronize with them.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"hcmpi"
)

func main() {
	hcmpi.Run(2, 2, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		// --- intra-node task parallelism: async / finish (paper Fig 1-2) ---
		sum := make([]int, 4)
		ctx.Finish(func(ctx *hcmpi.Ctx) {
			for i := range sum {
				i := i
				ctx.Async(func(*hcmpi.Ctx) { sum[i] = i * i })
			}
		})
		// After finish, all child tasks are done.

		// --- point-to-point with await (paper Fig 3-5) ---
		switch n.Rank() {
		case 0:
			n.Isend([]byte("hello from rank 0"), 1, 42)
		case 1:
			buf := make([]byte, 32)
			ctx.Finish(func(ctx *hcmpi.Ctx) {
				req := n.Irecv(buf, 0, 42)
				// A data-driven task keyed on the request handle: runs
				// when the message has arrived, without blocking any
				// worker.
				ctx.AsyncAwait(func(*hcmpi.Ctx) {
					st, _ := req.GetStatus()
					fmt.Printf("rank 1 received %q (%d bytes, tag %d)\n",
						buf[:st.Bytes], st.Bytes, st.Tag)
				}, req.DDF())
				// Meanwhile this rank keeps computing.
			})
		}

		// --- shared-memory dataflow: DDFs (paper §II-A) ---
		left, right := hcmpi.NewDDF(), hcmpi.NewDDF()
		ctx.Finish(func(ctx *hcmpi.Ctx) {
			ctx.AsyncAwait(func(ctx *hcmpi.Ctx) {
				a := left.MustGet().(int)
				b := right.MustGet().(int)
				fmt.Printf("rank %d dataflow join: %d + %d = %d\n", n.Rank(), a, b, a+b)
			}, left, right)
			ctx.Async(func(ctx *hcmpi.Ctx) { left.Put(ctx, 3) })
			ctx.Async(func(ctx *hcmpi.Ctx) { right.Put(ctx, 4) })
		})

		// --- collectives through the communication worker ---
		n.Barrier(ctx)
		total := n.Allreduce(ctx, encode(int64(n.Rank()+1)), hcmpi.Int64, hcmpi.OpSum)
		fmt.Printf("rank %d: allreduce sum = %d\n", n.Rank(), decode(total))
	})
}

func encode(x int64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(x >> (8 * i))
	}
	return b
}

func decode(b []byte) int64 {
	var x int64
	for i := 0; i < 8; i++ {
		x |= int64(b[i]) << (8 * i)
	}
	return x
}
