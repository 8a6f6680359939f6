package distsched

import (
	"encoding/binary"
	"fmt"

	"hcmpi/internal/deque"
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

// frameListCap bounds the rank's store of retired frames, kept for
// drivers and grants to reuse; past it they fall to the GC.
const frameListCap = 256

// maxKeptBuffer is the largest payload buffer a retired frame keeps, so
// a full store holds at most 1 MiB of buffers.
const maxKeptBuffer = 4096

// seedCount frames, each with a seedBuffer-byte buffer, are put in a
// new rank's store, carved from two slabs: a job's first frames are then
// not allocations of their own, two allocations a rank instead of two a
// frame until the first retired ones come back. That is about as many
// frames as circulate between two drivers and their deques, so a job
// that spawns few frames, and a short one, pays no warm-up per frame.
const (
	seedCount  = 128
	seedBuffer = 256
)

// seedFrames fills a new rank's store.
func seedFrames(store *deque.FreeList[frame]) {
	fs := make([]frame, seedCount)
	bufs := make([]byte, seedCount*seedBuffer)
	for i := range fs {
		fs[i].payload = bufs[i*seedBuffer : i*seedBuffer : (i+1)*seedBuffer]
		store.Put(&fs[i])
	}
}

// newFrame is getFrame's slow path: no retired frame was at hand.
func newFrame() *frame { return new(frame) }

// keepBuffer readies a retired frame for reuse: its payload's buffer
// stays on it, emptied, unless it is too large to keep.
func keepBuffer(f *frame) {
	if cap(f.payload) > maxKeptBuffer {
		f.payload = nil
	} else {
		f.payload = f.payload[:0]
	}
}

// sized returns buf resliced to n bytes, or a new buffer when buf is too
// small. New buffers are rounded up to a power of two of at least 64
// bytes, so a frame's buffer serves the next, slightly larger payload.
func sized(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	c := 64
	for c < n {
		c *= 2
	}
	return make([]byte, n, c)
}

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

// decodeFrames parses a grant into frames from get. Frame payloads
// are copied into the frames' own buffers (recycled with the frame once
// its handler returns), so the wire buffer is not retained.
func decodeFrames(b []byte, get func() *frame) ([]*frame, error) {
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
		f := get()
		f.kind, f.owned = binary.LittleEndian.Uint16(b[off:]), true
		plen := int(binary.LittleEndian.Uint32(b[off+2:]))
		off += frameHeader
		if len(b)-off < plen {
			return nil, fmt.Errorf("distsched: truncated frame payload at %d", off)
		}
		f.payload = sized(f.payload, plen)
		copy(f.payload, b[off:off+plen])
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
