// Package dddf implements distributed data-driven futures (DDDFs), the
// paper's Asynchronous Partitioned Global Name Space (APGNS) programming
// model: single-assignment futures with globally unique ids (guids),
// addressable from every rank with no MPI knowledge.
//
// Every guid has a home rank given by the user's DDF_HOME function. The
// home is responsible for transferring the value to remote awaiters: the
// first await on a remote guid sends the home a registration message; the
// home answers with the data as soon as its put has happened (immediately,
// if it already has), and the remote caches the value so every subsequent
// await and get succeeds locally. The single-assignment property makes the
// cache trivially coherent, and home-to-remote transfer happens at most
// once per remote node (paper §III-B).
//
// All protocol traffic flows through the HCMPI communication worker:
// registration requests and data responses are reserved-tag messages
// handled by listener tasks. The paper sends one message per guid; here
// the records bound for one rank are aggregated into frames (one
// hcmpi.Outbox per destination and tag), so a burst of awaits or puts
// costs one message, not one per guid (DESIGN.md §17).
package dddf

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
)

// Reserved tags for the DDDF wire protocol, drawn from the module-wide
// registry in internal/mpi/tags.go.
const (
	tagRegister = mpi.TagDDDFRegister // frame of guids — "send me each guid's value when put"
	tagData     = mpi.TagDDDFData     // frame of value records
	tagPutFwd   = mpi.TagDDDFPutFwd   // frame of value records — remote puts forwarded home
)

// Frame layouts (little endian). A register frame is packed guids; a
// data or put-forward frame is packed value records, each a header of
// guid and value length followed by the value.
const (
	guidBytes   = 8
	valueHeader = guidBytes + 4
)

// HomeFunc maps a guid to its home rank (DDF_HOME).
type HomeFunc func(guid int64) int

// SizeFunc reports the put size for a guid (DDF_SIZE). It is advisory in
// this implementation — payloads carry their own length — but is checked
// on put when provided.
type SizeFunc func(guid int64) int

// Space is one rank's view of the distributed DDF namespace.
type Space struct {
	node *hcmpi.Node
	home HomeFunc
	size SizeFunc

	// Outboxes by destination rank, one set per tag.
	regOut, dataOut, fwdOut []*hcmpi.Outbox

	mu      sync.Mutex
	entries map[int64]*entry

	// stats, per guid whatever the framing (atomic: bumped from
	// computation workers and the comm worker)
	registersSent atomic.Int64
	dataSent      atomic.Int64
}

// entry tracks one guid on this rank.
type entry struct {
	ddf        hc.DDF
	registered atomic.Bool // remote side: registration sent to home
	pending    []int       // home side: ranks awaiting the put (under Space.mu)
}

// NewSpace creates the namespace handler on this rank and installs its
// protocol listeners on the communication worker. home must be available
// (and agree) on all ranks, as the paper requires of DDF_HOME/DDF_SIZE.
func NewSpace(n *hcmpi.Node, home HomeFunc, size SizeFunc) *Space {
	s := &Space{node: n, home: home, size: size, entries: make(map[int64]*entry)}
	ranks := n.Size()
	s.regOut, s.dataOut, s.fwdOut = make([]*hcmpi.Outbox, ranks), make([]*hcmpi.Outbox, ranks), make([]*hcmpi.Outbox, ranks)
	for r := 0; r < ranks; r++ {
		s.regOut[r] = n.NewOutbox(r, tagRegister, "dddf")
		s.dataOut[r] = n.NewOutbox(r, tagData, "dddf")
		s.fwdOut[r] = n.NewOutbox(r, tagPutFwd, "dddf")
	}
	n.Listen(tagRegister, s.onRegister)
	n.Listen(tagData, s.onData)
	n.Listen(tagPutFwd, s.onPutFwd)
	return s
}

// Handle returns this rank's handle on the DDDF identified by guid
// (DDF_HANDLE). The call always returns a local handle, wherever the home
// is.
func (s *Space) Handle(guid int64) *Handle {
	s.mu.Lock()
	e := s.entryLocked(guid)
	s.mu.Unlock()
	return &Handle{s: s, guid: guid, e: e}
}

func (s *Space) entryLocked(guid int64) *entry {
	e, ok := s.entries[guid]
	if !ok {
		e = &entry{}
		s.entries[guid] = e
	}
	return e
}

// Handle is a local handle on one DDDF.
type Handle struct {
	s    *Space
	guid int64
	e    *entry
}

// Guid returns the handle's globally unique id.
func (h *Handle) Guid() int64 { return h.guid }

// Home returns the guid's home rank.
func (h *Handle) Home() int { return h.s.home(h.guid) }

// IsHome reports whether this rank is the guid's home.
func (h *Handle) IsHome() bool { return h.Home() == h.s.node.Rank() }

// DDF exposes the local single-assignment cell (for await clauses).
func (h *Handle) DDF() *hc.DDF { return &h.e.ddf }

// Put writes the DDDF's value (DDF_PUT). On the home rank it releases
// local awaiters, satisfies already-arrived remote registrations, and
// leaves a listener answering future ones. On a remote rank the put is
// forwarded to the home (and cached locally). A second put anywhere is a
// program error.
func (h *Handle) Put(ctx *hc.Ctx, data []byte) {
	if err := h.TryPut(ctx, data); err != nil {
		panic(err)
	}
}

// TryPut is Put returning the single-assignment violation as an error.
func (h *Handle) TryPut(ctx *hc.Ctx, data []byte) error {
	if s := h.s.size; s != nil {
		if want := s(h.guid); want != len(data) {
			return fmt.Errorf("dddf: put of %d bytes on guid %d, DDF_SIZE says %d", len(data), h.guid, want)
		}
	}
	if h.IsHome() {
		return h.s.homePut(ctx, h.e, h.guid, data)
	}
	// Remote put: cache locally, then forward to home, which serves
	// everyone else.
	if err := h.e.ddf.TryPut(ctx, data); err != nil {
		return err
	}
	appendValue(h.s.fwdOut[h.Home()], h.guid, data)
	return nil
}

// homePut performs the home-side put on guid's entry e: release local
// awaiters and answer pending remote registrations.
func (s *Space) homePut(ctx *hc.Ctx, e *entry, guid int64, data []byte) error {
	s.mu.Lock()
	if err := e.ddf.TryPut(ctx, data); err != nil {
		s.mu.Unlock()
		return err
	}
	pending := e.pending
	e.pending = nil
	s.mu.Unlock()
	for _, r := range pending {
		s.sendData(r, guid, data)
	}
	return nil
}

// sendData transfers guid's value to remote rank r (once per remote).
func (s *Space) sendData(r int, guid int64, data []byte) {
	s.dataSent.Add(1)
	appendValue(s.dataOut[r], guid, data)
}

// Get returns the locally available value (DDF_GET). As in the
// shared-memory model it is non-blocking: reading before the value is
// locally available is a program error — await the handle first.
func (h *Handle) Get() ([]byte, error) {
	v, err := h.e.ddf.Get()
	if err != nil {
		return nil, fmt.Errorf("dddf: guid %d: %w", h.guid, err)
	}
	return v.([]byte), nil
}

// MustGet is Get panicking on error; safe inside a task that awaited the
// handle.
func (h *Handle) MustGet() []byte {
	v, err := h.Get()
	if err != nil {
		panic(err)
	}
	return v
}

// Full reports whether the value is locally available.
func (h *Handle) Full() bool { return h.e.ddf.Full() }

// AsyncAwait spawns fn once every listed handle's value is locally
// available, registering with remote homes as needed (the paper's
// async await over DDDFs).
func (s *Space) AsyncAwait(ctx *hc.Ctx, fn func(*hc.Ctx), hs ...*Handle) {
	if len(hs) == 1 { // the common await: no list to build
		s.register(hs[0])
		ctx.AsyncAwait(fn, &hs[0].e.ddf)
		return
	}
	ddfs := make([]*hc.DDF, len(hs))
	for i, h := range hs {
		s.register(h)
		ddfs[i] = &h.e.ddf
	}
	ctx.AsyncAwait(fn, ddfs...)
}

// AsyncAwaitPlus is AsyncAwait with additional local shared-memory DDF
// dependencies: fn runs once every listed handle AND every local DDF has
// been put. Dataflow applications mix the two constantly (e.g. tiled LU:
// a tile's local update chain plus remote panel tiles).
func (s *Space) AsyncAwaitPlus(ctx *hc.Ctx, fn func(*hc.Ctx), locals []*hc.DDF, hs ...*Handle) {
	ddfs := make([]*hc.DDF, 0, len(locals)+len(hs))
	ddfs = append(ddfs, locals...)
	for _, h := range hs {
		s.register(h)
		ddfs = append(ddfs, &h.e.ddf)
	}
	ctx.AsyncAwait(fn, ddfs...)
}

// register sends the home a one-time registration for a remote, still
// empty handle.
func (s *Space) register(h *Handle) {
	home := h.Home()
	if home == s.node.Rank() || h.e.ddf.Full() || !h.e.registered.CompareAndSwap(false, true) {
		return
	}
	s.registersSent.Add(1)
	var guid [guidBytes]byte
	binary.LittleEndian.PutUint64(guid[:], uint64(h.guid))
	s.regOut[home].Append(guid[:])
}

// --- listener callbacks (run on the communication worker) ---
//
// A callback's payload is borrowed from the transport (hcmpi.Node.Listen):
// guids are decoded by value and every cached value is copied out of the
// frame, into a slice of exactly its own size, before the callback
// returns.

// onRegister handles a remote rank's interest in local guids: those
// already put are answered at once — all into the same outbox, so one
// register frame is answered by one data frame — the rest when put.
func (s *Space) onRegister(src int, payload []byte) {
	for ; len(payload) >= guidBytes; payload = payload[guidBytes:] {
		guid := int64(binary.LittleEndian.Uint64(payload))
		s.mu.Lock()
		e := s.entryLocked(guid)
		if !e.ddf.Full() {
			e.pending = append(e.pending, src)
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()
		s.sendData(src, guid, e.ddf.MustGet().([]byte))
	}
}

// onData handles the home's data response: fill the local cache,
// releasing awaiting DDTs onto the communication worker's deque.
func (s *Space) onData(_ int, payload []byte) {
	for len(payload) > 0 {
		guid, data, rest := nextValue(payload)
		payload = rest
		s.mu.Lock()
		e := s.entryLocked(guid)
		s.mu.Unlock()
		// The transfer happens at most once, so a second data record for
		// the same guid is a protocol error worth surfacing loudly.
		if err := e.ddf.PutVia(s.node, data); err != nil {
			panic(fmt.Sprintf("dddf: duplicate data transfer for guid %d", guid))
		}
	}
}

// onPutFwd handles puts performed on a remote rank.
func (s *Space) onPutFwd(src int, payload []byte) {
	for len(payload) > 0 {
		guid, data, rest := nextValue(payload)
		payload = rest
		s.mu.Lock()
		e := s.entryLocked(guid)
		if err := e.ddf.PutVia(s.node, data); err != nil {
			s.mu.Unlock()
			panic(fmt.Sprintf("dddf: double put on guid %d (forwarded from rank %d)", guid, src))
		}
		pending := e.pending
		e.pending = nil
		s.mu.Unlock()
		for _, r := range pending {
			if r != src { // the putter already has the value
				s.sendData(r, guid, data)
			}
		}
	}
}

// Node returns the HCMPI node this space runs on.
func (s *Space) Node() *hcmpi.Node { return s.node }

// Stats reports protocol traffic from this rank.
func (s *Space) Stats() (registersSent, dataSent int64) {
	return s.registersSent.Load(), s.dataSent.Load()
}

// --- wire encoding ---

// appendValue writes one value record straight into out's open frame.
func appendValue(out *hcmpi.Outbox, guid int64, data []byte) {
	var hdr [valueHeader]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(guid))
	binary.LittleEndian.PutUint32(hdr[guidBytes:], uint32(len(data)))
	out.Append(hdr[:], data)
}

// nextValue decodes the value record at the head of frame b: the guid, a
// copy of the value (b is borrowed, the copy is what the cache keeps) and
// the rest of the frame.
func nextValue(b []byte) (guid int64, value, rest []byte) {
	guid = int64(binary.LittleEndian.Uint64(b))
	n := int(binary.LittleEndian.Uint32(b[guidBytes:]))
	value = make([]byte, n)
	copy(value, b[valueHeader:valueHeader+n])
	return guid, value, b[valueHeader+n:]
}
