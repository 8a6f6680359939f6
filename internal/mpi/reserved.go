package mpi

import "fmt"

// Reserved-tag operations for runtime protocols (HCMPI's communication
// worker, DDDF registration/data transfer). Reserved tags are negative,
// disjoint from both user tags ([0, maxUserTag)) and collective tags
// (>= maxUserTag); AnyTag wildcards never match them.

func checkReservedTag(tag int) {
	if tag >= 0 {
		panic(fmt.Sprintf("mpi: reserved tag %d must be negative", tag))
	}
}

// IsendReserved starts a non-blocking send on a reserved (negative) tag.
func (c *Comm) IsendReserved(buf []byte, dest, tag int) *Request {
	checkReservedTag(tag)
	return c.isend(buf, dest, tag)
}

// IsendReservedOwned is IsendReserved for a buffer drawn from Buffers:
// the transport takes buf over instead of staging a copy of it (the
// netsim fast path and the TCP mesh send it as is; the closure path of
// a duplicating fault plane still copies). buf is the transport's from
// the call on, whatever the outcome: it is recycled by whoever consumes
// the message, or by the send core when the request fails.
func (c *Comm) IsendReservedOwned(buf []byte, dest, tag int) *Request {
	checkReservedTag(tag)
	return c.isendOpts(buf, dest, tag, true)
}

// SendReserved is the blocking counterpart of IsendReserved.
func (c *Comm) SendReserved(buf []byte, dest, tag int) {
	c.IsendReserved(buf, dest, tag).Wait()
}

// IrecvReserved posts a receive on a reserved tag that adopts the full
// payload regardless of size; read it with Request.Payload after
// completion.
func (c *Comm) IrecvReserved(src, tag int) *Request {
	checkReservedTag(tag)
	return c.irecv(nil, src, tag, true)
}
