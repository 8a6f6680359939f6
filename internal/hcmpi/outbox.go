package hcmpi

import (
	"sync"

	"hcmpi/internal/trace"
)

// Aggregated sends (DESIGN.md §17). A runtime protocol that emits many
// small records to the same peer — DDDF registrations and data — does
// not pay one communication task, one MPI message and one staging buffer
// per record. It appends records to an Outbox, and the progress engine
// sends whatever has accumulated as one message.
//
// There is no timer and no threshold. The first record appended to an
// empty outbox prescribes one flush task; the task carries no bytes, it
// binds them when a sweep dispatches it. A lone record on an idle node
// therefore leaves exactly as early as a SendReserved would, and records
// appended while the engine is busy (or between two sweeps) ride the
// same message for free. The only constant is the frame cap.

// FrameCap bounds one aggregated message: the largest size class of the
// transport's buffer pool, so a frame is built in, sent from and
// received into a recycled buffer. A record that does not fit the open
// frame starts the next one, and a record larger than the cap travels
// alone in a frame of its own size.
const FrameCap = 64 << 10

// Outbox aggregates records bound for one (destination, reserved tag)
// into frames. Records are opaque to it: a frame is their concatenation
// in append order, never split across two messages, and the receiving
// listener parses it back. Safe for concurrent use.
type Outbox struct {
	n         *Node
	dest, tag int
	// frames counts the messages sent, records what they carried.
	frames, records *trace.Counter

	mu sync.Mutex
	// queue holds the frames not yet bound to a flush task, oldest first;
	// appends go to the last one. Non-empty exactly while a flush task is
	// prescribed and has not been dispatched: at most one per outbox.
	queue []frame
}

// frame is one message under construction, in a pool buffer.
type frame struct {
	buf     []byte
	records int
}

// NewOutbox creates the aggregation point for records sent to dest on
// the reserved tag. Its traffic is counted in the node's metrics as
// <metric>_frames_sent and <metric>_records_sent (outboxes of one
// protocol share the pair).
func (n *Node) NewOutbox(dest, tag int, metric string) *Outbox {
	m := n.rt.Metrics()
	return &Outbox{n: n, dest: dest, tag: tag,
		frames:  m.Counter(metric + "_frames_sent"),
		records: m.Counter(metric + "_records_sent")}
}

// Append adds one record — the concatenation of parts, copied before
// the call returns — to the open frame, and makes sure a flush is on its
// way. Like SendReserved it does not wait for delivery; a frame the
// network drops is retransmitted whole by mpi's send core.
func (o *Outbox) Append(parts ...[]byte) {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	o.mu.Lock()
	kick := len(o.queue) == 0
	if kick || len(o.queue[len(o.queue)-1].buf)+size > FrameCap {
		o.queue = append(o.queue, frame{buf: o.n.comm.Buffers().Get(max(size, FrameCap))[:0]})
	}
	f := &o.queue[len(o.queue)-1]
	for _, p := range parts {
		f.buf = append(f.buf, p...)
	}
	f.records++
	o.mu.Unlock()
	if kick {
		o.prescribeFlush()
	}
}

func (o *Outbox) prescribeFlush() {
	t := o.n.allocTask()
	t.kind = kindFlush
	t.outbox = o
	t.peer, t.tag = o.dest, o.tag
	o.n.prescribe(t)
}

// bind hands the oldest frame to the flush task being dispatched (sweep
// lock held) and, if younger frames wait behind it, prescribes the next
// flush: the sweep's dispatch loop picks it up at once.
func (o *Outbox) bind() frame {
	o.mu.Lock()
	f := o.queue[0]
	rest := copy(o.queue, o.queue[1:])
	o.queue[rest] = frame{}
	o.queue = o.queue[:rest]
	o.mu.Unlock()
	if rest > 0 {
		o.prescribeFlush()
	}
	o.frames.Add(1)
	o.records.Add(int64(f.records))
	return f
}
