package distsched

import (
	"encoding/binary"
	"fmt"

	"hcmpi/internal/bufpool"
	"hcmpi/internal/mpi"
)

// Wire protocol of the distributed scheduler. Five reserved tags, all
// serviced by the hcmpi communication worker's listener facility — the
// protocol piggybacks on its adaptive-parking poll loop and never adds
// a progress thread:
//
//	tagStealReq   thief  -> victim  empty            control
//	tagStealGrant victim -> thief   frames           WORK (Safra-counted)
//	tagStealDeny  victim -> thief   [load u32]       control
//	tagToken      ring neighbor     [color, q i64]   control
//	tagDone       any -> all        [status, rank]   control
//
// Only tagStealGrant carries work and participates in termination
// accounting; everything else is control traffic (see termination.go).
//
// The tag block -501..-505 is claimed in the module-wide reserved-tag
// registry (internal/mpi/tags.go; the -301..-304 block of the old
// hand-rolled UTS protocol is retired and stays unused).
const (
	tagStealReq   = mpi.TagDistStealReq
	tagStealGrant = mpi.TagDistStealGrant
	tagStealDeny  = mpi.TagDistStealDeny
	tagToken      = mpi.TagDistToken
	tagDone       = mpi.TagDistDone
)

// doneClean / doneFailed are tagDone status bytes.
const (
	doneClean  = byte(0)
	doneFailed = byte(1)
)

// frame is one migratable task: a closure descriptor (the kind index
// into the scheduler's registration table, identical across ranks by
// SPMD construction) plus an opaque payload. A frame has no identity
// beyond that; the chaos tests detect a duplicated frame by its
// payload.
type frame struct {
	payload []byte
	kind    uint16
	owned   bool // made by Spawn or a grant: payload and struct are the scheduler's to recycle; a Submit seed's are not
}

// frameListCap bounds each driver's list of executed frames kept for
// Spawn to reuse (32 B each); past it they fall to the GC.
const frameListCap = 256

// newFrame is Spawn's slow path: the driver's free list was empty.
func newFrame() *frame { return new(frame) }

// frameHeader is a frame's wire header: [kind u16][plen u32].
const frameHeader = 2 + 4

// encodeFrames serializes a batch for a steal grant:
// [count u32] then per frame [kind u16][plen u32][payload].
// The wire buffer is freshly allocated — transports may retain a
// reference to sent buffers, so it is never recycled on the send side.
func encodeFrames(fs []*frame) []byte {
	n := 4
	for _, f := range fs {
		n += frameHeader + len(f.payload)
	}
	b := make([]byte, n)
	binary.LittleEndian.PutUint32(b, uint32(len(fs)))
	off := 4
	for _, f := range fs {
		binary.LittleEndian.PutUint16(b[off:], f.kind)
		binary.LittleEndian.PutUint32(b[off+2:], uint32(len(f.payload)))
		off += frameHeader
		copy(b[off:], f.payload)
		off += len(f.payload)
	}
	return b
}

// decodeFrames parses a grant. Frame payloads are copied into buffers
// drawn from pool (recycled by the scheduler once the frame's handler
// returns), so the wire buffer is not retained.
func decodeFrames(b []byte, pool *bufpool.Pool) ([]*frame, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("distsched: grant of %d bytes", len(b))
	}
	count := int(binary.LittleEndian.Uint32(b))
	fs := make([]*frame, 0, count)
	off := 4
	for i := 0; i < count; i++ {
		if len(b)-off < frameHeader {
			return nil, fmt.Errorf("distsched: truncated frame header at %d", off)
		}
		f := &frame{kind: binary.LittleEndian.Uint16(b[off:])}
		plen := int(binary.LittleEndian.Uint32(b[off+2:]))
		off += frameHeader
		if len(b)-off < plen {
			return nil, fmt.Errorf("distsched: truncated frame payload at %d", off)
		}
		if plen > 0 {
			f.payload = pool.Get(plen)
			copy(f.payload, b[off:off+plen])
			f.owned = true
		}
		off += plen
		fs = append(fs, f)
	}
	return fs, nil
}

// encodeDeny carries the victim's remaining load for gossip policies.
func encodeDeny(load int) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, uint32(load))
	return b
}

func decodeDeny(b []byte) int {
	if len(b) < 4 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(b))
}

// encodeDone carries the shutdown verdict: clean termination, or a
// fail-stop abort naming the dead rank.
func encodeDone(status byte, failedRank int) []byte {
	b := make([]byte, 5)
	b[0] = status
	binary.LittleEndian.PutUint32(b[1:], uint32(int32(failedRank)))
	return b
}

func decodeDone(b []byte) (status byte, failedRank int) {
	if len(b) < 5 {
		return doneClean, -1
	}
	return b[0], int(int32(binary.LittleEndian.Uint32(b[1:])))
}
