package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"hcmpi/internal/netsim"
)

// worldSizes exercises power-of-two and ragged sizes.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestBarrierAllArrive(t *testing.T) {
	for _, n := range worldSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var before, after atomic.Int32
			w := NewWorld(n, WithNetwork(netsim.Params{InterLatency: 100 * time.Microsecond}))
			w.Run(func(c *Comm) {
				before.Add(1)
				c.Barrier()
				// Every rank must have incremented before any rank exits.
				if got := before.Load(); got != int32(n) {
					t.Errorf("rank %d left barrier with before=%d want %d", c.Rank(), got, n)
				}
				after.Add(1)
			})
			if after.Load() != int32(n) {
				t.Fatalf("after = %d", after.Load())
			}
		})
	}
}

func TestBcastAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			w := NewWorld(n)
			w.Run(func(c *Comm) {
				buf := make([]byte, 8)
				if c.Rank() == root {
					copy(buf, EncodeInt64(int64(1000+root)))
				}
				c.Bcast(buf, root)
				if got := DecodeInt64(buf); got != int64(1000+root) {
					t.Errorf("n=%d root=%d rank=%d got %d", n, root, c.Rank(), got)
				}
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root += 2 {
			w := NewWorld(n)
			w.Run(func(c *Comm) {
				data := EncodeInt64(int64(c.Rank() + 1))
				res := c.Reduce(data, Int64, OpSum, root)
				if c.Rank() == root {
					want := int64(n * (n + 1) / 2)
					if got := DecodeInt64(res); got != want {
						t.Errorf("n=%d root=%d got %d want %d", n, root, got, want)
					}
				} else if res != nil {
					t.Errorf("non-root got non-nil reduce result")
				}
			})
		}
	}
}

func TestAllreduceEqualsReducePlusBcast(t *testing.T) {
	for _, n := range worldSizes {
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			data := EncodeInt64(int64(c.Rank() * c.Rank()))
			res := c.Allreduce(data, Int64, OpSum)
			var want int64
			for r := 0; r < n; r++ {
				want += int64(r * r)
			}
			if got := DecodeInt64(res); got != want {
				t.Errorf("n=%d rank=%d got %d want %d", n, c.Rank(), got, want)
			}
		})
	}
}

func TestAllreduceMinMaxProd(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		v := int64(c.Rank() + 1)
		if got := DecodeInt64(c.Allreduce(EncodeInt64(v), Int64, OpMax)); got != 5 {
			t.Errorf("max = %d", got)
		}
		if got := DecodeInt64(c.Allreduce(EncodeInt64(v), Int64, OpMin)); got != 1 {
			t.Errorf("min = %d", got)
		}
		if got := DecodeInt64(c.Allreduce(EncodeInt64(v), Int64, OpProd)); got != 120 {
			t.Errorf("prod = %d", got)
		}
	})
}

func TestAllreduceFloat64(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		v := float64(c.Rank()) + 0.5
		res := DecodeFloat64s(c.Allreduce(EncodeFloat64s([]float64{v}), Float64, OpSum))
		if res[0] != 8.0 { // 0.5+1.5+2.5+3.5
			t.Errorf("float sum = %v", res[0])
		}
	})
}

func TestAllreduceVector(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		vec := []int64{int64(c.Rank()), int64(c.Rank() * 10), 1}
		res := DecodeInt64s(c.Allreduce(EncodeInt64s(vec), Int64, OpSum))
		want := []int64{3, 30, 3} // 0+1+2, 0+10+20, 1+1+1
		for i := range want {
			if res[i] != want[i] {
				t.Errorf("vector allreduce[%d] = %d want %d", i, res[i], want[i])
			}
		}
	})
}

func TestScanInclusive(t *testing.T) {
	for _, n := range worldSizes {
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			res := c.Scan(EncodeInt64(int64(c.Rank()+1)), Int64, OpSum)
			want := int64((c.Rank() + 1) * (c.Rank() + 2) / 2)
			if got := DecodeInt64(res); got != want {
				t.Errorf("n=%d rank=%d scan=%d want %d", n, c.Rank(), got, want)
			}
		})
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		var parts [][]byte
		if c.Rank() == 2 {
			parts = make([][]byte, n)
			for r := range parts {
				parts[r] = EncodeInt64(int64(r * 7))
			}
		}
		mine := c.Scatter(parts, 2)
		if got := DecodeInt64(mine); got != int64(c.Rank()*7) {
			t.Errorf("scatter rank %d got %d", c.Rank(), got)
		}
		gathered := c.Gather(mine, 2)
		if c.Rank() == 2 {
			for r := range gathered {
				if got := DecodeInt64(gathered[r]); got != int64(r*7) {
					t.Errorf("gather[%d] = %d", r, got)
				}
			}
		} else if gathered != nil {
			t.Error("non-root Gather returned data")
		}
	})
}

func TestAllgather(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		out := c.Allgather(EncodeInt64(int64(c.Rank() + 100)))
		for r := 0; r < n; r++ {
			if got := DecodeInt64(out[r]); got != int64(r+100) {
				t.Errorf("rank %d allgather[%d] = %d", c.Rank(), r, got)
			}
		}
	})
}

func TestSuccessiveCollectivesDoNotCrossMatch(t *testing.T) {
	// Back-to-back collectives with different values: a tag-space bug
	// would let round k+1 messages satisfy round k.
	const n = 4
	const rounds = 20
	w := NewWorld(n, WithNetwork(netsim.Params{InterLatency: 20 * time.Microsecond}))
	w.Run(func(c *Comm) {
		for k := 0; k < rounds; k++ {
			res := DecodeInt64(c.Allreduce(EncodeInt64(int64(k+c.Rank())), Int64, OpSum))
			want := int64(n*k + n*(n-1)/2)
			if res != want {
				t.Errorf("round %d rank %d: got %d want %d", k, c.Rank(), res, want)
			}
		}
	})
}

func TestCollectivesMixedWithP2P(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send([]byte{55}, 1, 9)
		}
		c.Barrier()
		if c.Rank() == 1 {
			buf := make([]byte, 1)
			c.Recv(buf, 0, 9)
			if buf[0] != 55 {
				t.Errorf("p2p across barrier got %d", buf[0])
			}
		}
		c.Barrier()
	})
}

// Property: Allreduce(sum) over random per-rank vectors equals the local
// fold, for a random ragged world size.
func TestQuickAllreduceSum(t *testing.T) {
	f := func(vals []int64, sz uint8) bool {
		n := int(sz%6) + 1
		if len(vals) == 0 {
			vals = []int64{1}
		}
		if len(vals) > 16 {
			vals = vals[:16]
		}
		want := make([]int64, len(vals))
		for r := 0; r < n; r++ {
			for i, v := range vals {
				want[i] += v + int64(r)
			}
		}
		okAll := atomic.Bool{}
		okAll.Store(true)
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			mine := make([]int64, len(vals))
			for i, v := range vals {
				mine[i] = v + int64(c.Rank())
			}
			got := DecodeInt64s(c.Allreduce(EncodeInt64s(mine), Int64, OpSum))
			for i := range want {
				if got[i] != want[i] {
					okAll.Store(false)
				}
			}
		})
		return okAll.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOpCombineInt32(t *testing.T) {
	dst := []byte{1, 0, 0, 0, 250, 255, 255, 255} // [1, -6]
	src := []byte{2, 0, 0, 0, 10, 0, 0, 0}        // [2, 10]
	OpMax.Combine(Int32, dst, src)
	if dst[0] != 2 || dst[4] != 10 {
		t.Errorf("int32 max combine: %v", dst)
	}
}

func TestVariableSizeCollectives(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		// Allgather with rank-dependent sizes: contributions need not
		// agree in length.
		mine := make([]byte, c.Rank()+1)
		for i := range mine {
			mine[i] = byte(c.Rank())
		}
		out := c.Allgather(mine)
		for r := 0; r < n; r++ {
			if len(out[r]) != r+1 || (r > 0 && out[r][0] != byte(r)) {
				t.Errorf("allgather[%d] = %v", r, out[r])
			}
		}
	})
}
