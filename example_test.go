package hcmpi_test

import (
	"fmt"

	"hcmpi"
)

// The paper's Fig. 3 pattern: blocking semantics from a finish scope
// around a non-blocking receive.
func ExampleRun() {
	hcmpi.Run(2, 2, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		switch n.Rank() {
		case 0:
			n.Isend([]byte("hi"), 1, 0)
		case 1:
			buf := make([]byte, 2)
			ctx.Finish(func(ctx *hcmpi.Ctx) {
				req := n.Irecv(buf, 0, 0)
				ctx.AsyncAwait(func(*hcmpi.Ctx) {}, req.DDF())
				// ... overlapped computation here ...
			})
			// Irecv is complete after the finish.
			fmt.Printf("%s\n", buf)
		}
	})
	// Output: hi
}

// Dataflow with shared-memory DDFs: the await clause releases the task
// when all inputs are put.
func ExampleDDF() {
	hcmpi.Run(1, 2, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		a, b := hcmpi.NewDDF(), hcmpi.NewDDF()
		ctx.Finish(func(ctx *hcmpi.Ctx) {
			ctx.AsyncAwait(func(*hcmpi.Ctx) {
				fmt.Println(a.MustGet().(int) + b.MustGet().(int))
			}, a, b)
			ctx.Async(func(ctx *hcmpi.Ctx) { a.Put(ctx, 40) })
			ctx.Async(func(ctx *hcmpi.Ctx) { b.Put(ctx, 2) })
		})
	})
	// Output: 42
}

// A system-wide reduction at a phaser synchronization point (the paper's
// hcmpi-accum, Fig. 8).
func ExampleNode_AccumCreate() {
	hcmpi.Run(2, 1, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		acc := n.AccumCreate(hcmpi.OpSum, hcmpi.Int64)
		reg := acc.Register(hcmpi.SignalWait)
		reg.AccumNext(int64(n.Rank() + 1)) // 1 + 2 across ranks
		if n.Rank() == 0 {
			fmt.Println(reg.Get().(int64))
		}
	})
	// Output: 3
}

// Distributed data-driven futures: rank 1 consumes a value homed on rank
// 0 with no explicit messaging (the APGNS model, Fig. 9).
func ExampleRunDDDF() {
	home := func(guid int64) int { return 0 }
	hcmpi.RunDDDF(2, hcmpi.Config{Workers: 1}, home, nil,
		func(s *hcmpi.DDDFSpace, ctx *hcmpi.Ctx) {
			h := s.Handle(7)
			if s.Node().Rank() == 0 {
				h.Put(ctx, []byte("dataflow"))
				return
			}
			done := make(chan struct{})
			ctx.Finish(func(ctx *hcmpi.Ctx) {
				s.AsyncAwait(ctx, func(*hcmpi.Ctx) {
					fmt.Printf("%s\n", h.MustGet())
					close(done)
				}, h)
			})
			<-done
		})
	// Output: dataflow
}
