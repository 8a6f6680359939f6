package mpi

// Central registry of the module's reserved-tag blocks. Every runtime
// protocol that owns a slice of the negative tag space declares it here
// — and only here — so the blocks can never drift apart or silently
// collide when a new subsystem claims a range. The subsystems import
// their tag constants from this file, and hclint's tag-space analyzer
// reads ReservedTagRanges to flag any literal tag that strays into a
// block its package does not own (DESIGN.md §10).
//
// Layout of the full tag space:
//
//	[0, MaxUserTag)        application tags (AnyTag matches these only)
//	[MaxUserTag, ...)      collective sequence tags (collTag)
//	-201..-203             DDDF registration/data/put-forward
//	-401..-402             RMA one-sided requests and get responses
//	-501..-505             distsched steal/termination protocol
//	TagTCPHeartbeat        TCP keepalive frames (consumed by the reader)
const (
	// MaxUserTag bounds application tags: user tags live in
	// [0, MaxUserTag), collective tags at MaxUserTag and above.
	MaxUserTag = maxUserTag

	// DDDF protocol (internal/dddf): distributed data-driven futures.
	TagDDDFRegister = -201 // guid — "send me guid's value when put"
	TagDDDFData     = -202 // guid ++ value
	TagDDDFPutFwd   = -203 // guid ++ value — remote put forwarded home

	// RMA protocol (internal/mpi/rma.go): one-sided operations.
	TagRMA     = -401 // data/requests, handled at the target
	TagRMAResp = -402 // get responses

	// Distributed scheduler protocol (internal/distsched).
	TagDistStealReq   = -501 // thief  -> victim  empty          control
	TagDistStealGrant = -502 // victim -> thief   frames         WORK
	TagDistStealDeny  = -503 // victim -> thief   [load u32]     control
	TagDistToken      = -504 // ring succ         [color][q i64] control
	TagDistDone       = -505 // broadcast         [status][rank] control

	// TagTCPHeartbeat is the wire tag of TCP keepalive frames. It sits
	// far outside every other tag space; the transport's reader consumes
	// it before the matching layer ever sees it.
	TagTCPHeartbeat = -1 << 62
)

// TagRange is one subsystem's reserved block, inclusive on both ends
// (Lo <= Hi). Owner is the import path whose code may spell tags in the
// block; the registry's own package (internal/mpi) is always allowed,
// since the constants are declared here.
type TagRange struct {
	Name   string
	Owner  string
	Lo, Hi int
}

// ReservedTagRanges lists every claimed reserved block, ascending by Lo.
// hclint's tag-space analyzer is a consumer: keep Owner paths in sync
// with the packages that use each block.
var ReservedTagRanges = []TagRange{
	{Name: "tcp-heartbeat", Owner: "hcmpi/internal/mpi", Lo: TagTCPHeartbeat, Hi: TagTCPHeartbeat},
	{Name: "distsched", Owner: "hcmpi/internal/distsched", Lo: TagDistDone, Hi: TagDistStealReq},
	{Name: "rma", Owner: "hcmpi/internal/mpi", Lo: TagRMAResp, Hi: TagRMA},
	{Name: "dddf", Owner: "hcmpi/internal/dddf", Lo: TagDDDFPutFwd, Hi: TagDDDFRegister},
}

// ReservedRangeOf returns the block containing tag, if any.
func ReservedRangeOf(tag int) (TagRange, bool) {
	for _, r := range ReservedTagRanges {
		if tag >= r.Lo && tag <= r.Hi {
			return r, true
		}
	}
	return TagRange{}, false
}
