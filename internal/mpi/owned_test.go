package mpi_test

import (
	"bytes"
	"testing"

	"hcmpi/internal/mpi"
	"hcmpi/internal/mpi/mpitest"
)

// An owned send and a borrowed receive are the two ends of the
// zero-copy path runtime protocols use (hcmpi.Outbox frames into
// listener callbacks): the sender builds the message in a pool buffer
// and gives it away, the receiver reads the adopted payload and gives
// it back. On both transports the bytes arrive intact and both buffers
// end up in a pool again.
func TestOwnedSendBorrowedReceive(t *testing.T) {
	const tag, rounds, size = -78, 50, 3000
	for _, b := range mpitest.Backends() {
		t.Run(b.Name, func(t *testing.T) {
			b.Run(t, 2, func(c *mpi.Comm) {
				m := c.Metrics()
				if c.Rank() == 0 {
					for i := 0; i < rounds; i++ {
						buf := c.Buffers().Get(size)
						for j := range buf {
							buf[j] = byte(i + j)
						}
						r := c.IsendReservedOwned(buf, 1, tag)
						if st := r.WaitStatus(); st.Err != nil {
							t.Errorf("owned send %d: %v", i, st.Err)
						}
						r.Free()
						c.Recv(nil, 1, 1) // the receiver has given the buffer back
					}
					return
				}
				want := make([]byte, size)
				for i := 0; i < rounds; i++ {
					r := c.IrecvReserved(0, tag)
					st := r.WaitStatus()
					for j := range want {
						want[j] = byte(i + j)
					}
					if st.Err != nil || !bytes.Equal(r.Payload(), want) {
						t.Errorf("borrowed receive %d: %+v, payload intact: %v", i, st, bytes.Equal(r.Payload(), want))
					}
					r.FreeWithPayload()
					c.Send(nil, 0, 1)
				}
				// One buffer circulates (netsim: the sender's own; TCP: one
				// staged per side), so after the first rounds every Get hits.
				if hits, misses := m.Counter("buf_pool_hit").Load(), m.Counter("buf_pool_miss").Load(); hits < 4*misses {
					t.Errorf("%s: %d pool hits, %d misses over %d rounds: buffers are not coming back", b.Name, hits, misses, rounds)
				}
			})
		})
	}
}
