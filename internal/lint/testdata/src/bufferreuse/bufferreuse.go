// Package bufferreuse exercises the buffer-reuse analyzer: stores,
// in-place growth, pool recycling, and re-posts of a buffer inside the
// window between a nonblocking post and its completion — plus the
// legal shapes (reads, completion-then-write, chained Wait, closures).
package bufferreuse

type Request struct{ done bool }

func (r *Request) Wait()      {}
func (r *Request) Test() bool { return r.done }

type Comm struct{ rank int }

func (c *Comm) Rank() int                               { return c.rank }
func (c *Comm) Isend(buf []byte, dst, tag int) *Request { return &Request{} }
func (c *Comm) Irecv(buf []byte, src, tag int) *Request { return &Request{} }

type Win struct{}

func (w *Win) Put(buf []byte, dst, off int) *Request { return &Request{} }

// BufPool's name marks Put as a recycler to the analyzer.
type BufPool struct{}

func (p *BufPool) Put(b []byte) {}

// ---- hazards inside the in-flight window ----

func writeWhilePosted(c *Comm) {
	buf := make([]byte, 4)
	r := c.Isend(buf, 1, 0)
	buf[0] = 1 // want: written while posted
	r.Wait()
	buf[0] = 2 // legal: the request completed
}

func copyWhilePosted(c *Comm, src []byte) {
	buf := make([]byte, 4)
	r := c.Irecv(buf, 0, 0)
	copy(buf, src) // want: written by copy
	r.Wait()
}

func appendWhilePosted(c *Comm) {
	buf := make([]byte, 0, 8)
	r := c.Isend(buf, 1, 0)
	buf = append(buf, 9) // want: appended to in place
	r.Wait()
}

func recycleWhilePosted(c *Comm, pool *BufPool) {
	buf := make([]byte, 4)
	r := c.Isend(buf, 1, 0)
	pool.Put(buf) // want: recycled to a pool
	r.Wait()
}

func repostWhilePosted(c *Comm) {
	buf := make([]byte, 4)
	r1 := c.Isend(buf, 1, 0)
	r2 := c.Isend(buf, 2, 0) // want: re-posted
	r1.Wait()
	r2.Wait()
}

func rmaWriteWhilePosted(w *Win) {
	buf := make([]byte, 8)
	r := w.Put(buf, 1, 0)
	buf[7] = 1 // want: written while posted
	r.Wait()
}

func writeOnJoinedPath(c *Comm, flag bool) {
	buf := make([]byte, 4)
	var r *Request
	if flag {
		r = c.Isend(buf, 1, 0)
	}
	buf[0] = 1 // want: written while posted
	if r != nil {
		r.Wait()
	}
}

// ---- legal shapes ----

func okReadWhilePosted(c *Comm) byte {
	buf := []byte{1, 2, 3}
	r := c.Isend(buf, 1, 0)
	x := buf[0] // reads of a posted send buffer are legal
	r.Wait()
	return x
}

func okChainedCompletion(c *Comm) {
	buf := make([]byte, 4)
	c.Isend(buf, 1, 0).Wait()
	buf[0] = 1
}

func okTestLoopThenWrite(c *Comm) {
	buf := make([]byte, 4)
	r := c.Irecv(buf, 0, 0)
	for !r.Test() {
	}
	buf[0] = 1
}

func okCapturedBuffer(c *Comm, done func()) {
	buf := make([]byte, 4)
	go func() { buf[0] = 1; done() }()
	c.Isend(buf, 1, 0).Wait()
}

func okFreshBufferEachPost(c *Comm) {
	for i := 0; i < 4; i++ {
		buf := make([]byte, 4)
		c.Isend(buf, 1, 0).Wait()
		buf[0] = byte(i)
	}
}

// ---- listener payloads are borrowed for the callback only ----

type Node struct {
	last []byte
	log  [][]byte
	ch   chan []byte
}

func (n *Node) Listen(tag int, fn func(src int, payload []byte)) {}

type record struct{ body []byte }

func consume(b []byte) {}

func retainInLiteral(n *Node) []byte {
	var kept []byte
	n.Listen(-1, func(_ int, payload []byte) {
		kept = payload // want: stored in a captured variable
	})
	return kept
}

func (n *Node) onMsg(src int, payload []byte) {
	body := payload[8:]            // an alias is fine by itself
	n.last = body                  // want: stored in a field
	n.log = append(n.log, payload) // want: appended as an element
	n.ch <- payload[:4]            // want: sent on a channel
	_ = record{body: body}         // want: stored in a composite literal
	go consume(payload)            // want: handed to a goroutine
}

func retainInMethod(n *Node) { n.Listen(-2, n.onMsg) }

func (n *Node) okCopies(src int, payload []byte) {
	n.last = append(n.last[:0], payload...) // copies the bytes
	own := make([]byte, len(payload))
	copy(own, payload)
	n.last = own
	for ; len(payload) >= 8; payload = payload[8:] {
		consume(payload[:8]) // callees may read it
	}
	n.log = append(n.log, append([]byte(nil), payload...))
}

func okListen(n *Node) { n.Listen(-3, n.okCopies) }
