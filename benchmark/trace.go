package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced run records from the benchmark's own files, around the calls
// into each layer: decorators over transport.Network / Node / Mux / Session
// / Handler and wal.Durability — interfaces the servers already accept — so
// nothing inside the program changes. Counts and duration samples are kept
// per message class whenever the tracer is on; full spans (name, start,
// end, parent, op) only while spans are on (the light phase, where one
// operation per DC is in flight and parents are unambiguous).

// span kinds, each standing for a layer of the ledger.
const (
	kindOp     = iota // a client operation (layer "client")
	kindCall          // a blocking request, as its caller saw it ("transport")
	kindHandle        // a handler invocation ("protocol": core or cclo)
	kindWAL           // an Append on the durability backend ("wal")
	numKinds
)

var kindNames = [numKinds]string{"client", "transport.call", "transport.handle", "wal.append"}

// message classes; both families map onto them (see spec.go).
const (
	clsOther = iota
	clsPut
	clsRot // client-side: the whole 1.5-round exchange, or one CC-LO leg
	clsRotCoord
	clsRotLeg
	clsReadersCheck
	clsDepCheck
	clsReplicate
	clsStabilize
	clsAppend
	numClasses
)

var classNames = [numClasses]string{"other", "put", "rot", "rot_coord", "rot_leg", "readers_check", "dep_check", "replicate", "stabilize", "append"}

// handleClass maps a message type to the class of the handler serving it.
func handleClass(t uint16) int {
	switch t {
	case wire.TPutReq, wire.TLoPutReq:
		return clsPut
	case wire.TRotCoordReq:
		return clsRotCoord
	case wire.TRotFwd, wire.TLoRotReq, wire.TRotReadReq:
		return clsRotLeg
	case wire.TOldReadersReq:
		return clsReadersCheck
	case wire.TDepCheckReq:
		return clsDepCheck
	case wire.TRepBatch, wire.TLoRepUpdate:
		return clsReplicate
	case wire.TVVReport, wire.TGSSBcast:
		return clsStabilize
	}
	return clsOther
}

// callClass maps a request type to the class of the blocking call, as the
// caller names it: a client's read legs are its "rot".
func callClass(t uint16) int {
	c := handleClass(t)
	if c == clsRotCoord || c == clsRotLeg {
		return clsRot
	}
	return c
}

// span is one recorded interval. Times are nanoseconds since tracer.base.
type span struct {
	Kind   uint8
	Class  uint8
	Put    bool      // kindOp: the operation was a PUT
	Node   wire.Addr // where it ran (caller for calls, server for handlers)
	Peer   wire.Addr // callee for calls, sender for handlers
	Sess   uint32    // client session that caused it, when known
	Op     uint64    // client operation id, 0 when unknown
	Start  int64
	End    int64
	Parent int32 // index into the span slice, -1 for none
}

// cell aggregates one (kind, class): exact count and sum, plus every
// sampleStride-th duration up to a fixed capacity for percentiles.
type cell struct {
	n    atomic.Uint64
	sum  atomic.Uint64
	next atomic.Uint64
	buf  []atomic.Int64 // background traffic may still record while a phase is cut
}

const (
	sampleStride = 4
	cellCap      = 1 << 16
	wireSamples  = 4096 // encoded frames kept for the codec replay
	wireStride   = 32
)

func (c *cell) add(ns int64) {
	i := c.n.Add(1)
	c.sum.Add(uint64(ns))
	if i%sampleStride == 0 {
		if j := c.next.Add(1) - 1; j < cellCap {
			c.buf[j].Store(ns)
		}
	}
}

// cellView is a frozen cell.
type cellView struct {
	n      uint64
	sumNs  uint64
	sorted []int64
}

func (v cellView) p50us() float64 { return pct(v.sorted, 50) / 1e3 }

type tracer struct {
	base  time.Time
	on    atomic.Bool // aggregate
	spans atomic.Bool // also record spans

	cells [numKinds][numClasses]cell

	mu  sync.Mutex
	log []span

	sessMu   sync.RWMutex
	sessions map[uint64]*tracedSession // dc<<32 | session id

	repBatches, repUpdates atomic.Uint64
	clientReqs             atomic.Uint64 // requests sessions issued during ROTs
	clientRots             atomic.Uint64

	wireSeen atomic.Uint64
	wireMu   sync.Mutex
	frames   [][]byte
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), sessions: make(map[uint64]*tracedSession)}
	for k := range t.cells {
		for c := range t.cells[k] {
			t.cells[k][c].buf = make([]atomic.Int64, cellCap)
		}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// cut freezes the aggregates of the phase that just ended and resets them.
// It is exact only while no traffic is in flight.
func (t *tracer) cut() (out [numKinds][numClasses]cellView) {
	for k := range t.cells {
		for c := range t.cells[k] {
			cl := &t.cells[k][c]
			s := make([]int64, min(cl.next.Load(), cellCap))
			for i := range s {
				s[i] = cl.buf[i].Load()
			}
			slices.Sort(s)
			out[k][c] = cellView{n: cl.n.Load(), sumNs: cl.sum.Load(), sorted: s}
			cl.n.Store(0)
			cl.sum.Store(0)
			cl.next.Store(0)
		}
	}
	return out
}

// takeSpans hands over the spans recorded so far.
func (t *tracer) takeSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.log
	t.log = nil
	return out
}

func (t *tracer) record(sp span) {
	t.cells[sp.Kind][sp.Class].add(sp.End - sp.Start)
	if t.spans.Load() {
		sp.Parent = -1
		t.mu.Lock()
		t.log = append(t.log, sp)
		t.mu.Unlock()
	}
}

// sample keeps every wireStride-th outgoing message as an encoded frame for
// the codec replay (wire.* metrics).
func (t *tracer) sample(src, dst wire.Addr, sess wire.SessionID, resp bool, m wire.Message) {
	if !t.on.Load() || t.wireSeen.Add(1)%wireStride != 0 {
		return
	}
	b := wire.EncodeEnvelope(nil, &wire.Envelope{Src: src, Dst: dst, ReqID: 1, Resp: resp, Session: sess, Msg: m})
	t.wireMu.Lock()
	if len(t.frames) < wireSamples {
		t.frames = append(t.frames, b)
	}
	t.wireMu.Unlock()
}

// takeFrames hands over the sampled frames.
func (t *tracer) takeFrames() [][]byte {
	t.wireMu.Lock()
	defer t.wireMu.Unlock()
	out := t.frames
	t.frames = nil
	return out
}

// opOf returns the operation a client session is running right now.
func (t *tracer) opOf(dc int, sess wire.SessionID) uint64 {
	t.sessMu.RLock()
	s := t.sessions[uint64(dc)<<32|uint64(sess)]
	t.sessMu.RUnlock()
	if s == nil {
		return 0
	}
	return s.op.Load()
}

// --- transport decorators -------------------------------------------------

type tracedNet struct {
	transport.Network
	t *tracer
}

func (t *tracer) network(n transport.Network) transport.Network { return &tracedNet{n, t} }

func (n *tracedNet) Attach(addr wire.Addr, h transport.Handler) (transport.Node, error) {
	node, err := n.Network.Attach(addr, &tracedHandler{h: h, t: n.t, addr: addr})
	if err != nil {
		return nil, err
	}
	return &tracedNode{Node: node, t: n.t}, nil
}

func (n *tracedNet) AttachMux(addr wire.Addr, pool int) (transport.Mux, error) {
	m, err := n.Network.AttachMux(addr, pool)
	if err != nil {
		return nil, err
	}
	return &tracedMux{Mux: m, t: n.t}, nil
}

// tracedHandler times every handler invocation of one server.
type tracedHandler struct {
	h    transport.Handler
	t    *tracer
	addr wire.Addr
}

func (h *tracedHandler) Handle(node transport.Node, src wire.From, reqID uint64, m wire.Message) {
	t := h.t
	if !t.on.Load() {
		h.h.Handle(node, src, reqID, m)
		return
	}
	// Read what the span needs before the handler runs: the transport
	// recycles pooled messages once it returns.
	typ := m.Type()
	sp := span{Kind: kindHandle, Class: uint8(handleClass(typ)), Node: h.addr, Peer: src.Addr, Sess: uint32(src.Sess)}
	client := src.Addr
	switch msg := m.(type) {
	case *wire.RotFwd:
		client, sp.Sess = msg.Client, uint32(msg.Sess)
	case *wire.RepBatch:
		if len(msg.Ups) > 0 {
			t.repBatches.Add(1)
			t.repUpdates.Add(uint64(len(msg.Ups)))
		}
	}
	if sp.Sess != 0 && t.spans.Load() {
		sp.Op = t.opOf(client.DC(), wire.SessionID(sp.Sess))
	}
	sp.Start = t.now()
	h.h.Handle(node, src, reqID, m)
	sp.End = t.now()
	t.record(sp)
}

// tracedNode times the blocking calls a server issues (readers checks,
// dependency checks, replication) and samples what it sends.
type tracedNode struct {
	transport.Node
	t *tracer
}

func (n *tracedNode) Send(dst wire.Addr, m wire.Message) error {
	n.t.sample(n.Addr(), dst, 0, false, m)
	return n.Node.Send(dst, m)
}

func (n *tracedNode) SendTo(to wire.From, m wire.Message) error {
	n.t.sample(n.Addr(), to.Addr, to.Sess, false, m)
	return n.Node.SendTo(to, m)
}

func (n *tracedNode) Respond(to wire.From, reqID uint64, m wire.Message) error {
	n.t.sample(n.Addr(), to.Addr, to.Sess, true, m)
	return n.Node.Respond(to, reqID, m)
}

func (n *tracedNode) Call(ctx context.Context, dst wire.Addr, m wire.Message) (wire.Message, error) {
	t := n.t
	if !t.on.Load() {
		return n.Node.Call(ctx, dst, m)
	}
	t.sample(n.Addr(), dst, 0, false, m)
	sp := span{Kind: kindCall, Class: uint8(callClass(m.Type())), Node: n.Addr(), Peer: dst, Start: t.now()}
	resp, err := n.Node.Call(ctx, dst, m)
	sp.End = t.now()
	t.record(sp)
	return resp, err
}

type tracedMux struct {
	transport.Mux
	t *tracer
}

func (m *tracedMux) Session(id wire.SessionID, h transport.Handler) (transport.Session, error) {
	ts := m.t.session(m.Addr().DC(), id)
	s, err := m.Mux.Session(id, transport.HandlerFunc(func(n transport.Node, src wire.From, reqID uint64, msg wire.Message) {
		// A direct partition-to-client answer of the 1.5-round ROT.
		ts.lastPush.Store(m.t.now())
		if h != nil {
			h.Handle(n, src, reqID, msg)
		}
	}))
	if err != nil {
		return nil, err
	}
	ts.Session = s
	return ts, nil
}

// tracedSession is a client session's endpoint. The driver tells it which
// operation is running (closed loop: one at a time), which is what lets a
// server-side handler span find its operation without any wire change.
type tracedSession struct {
	transport.Session
	t  *tracer
	dc int

	op       atomic.Uint64 // current operation id, 0 between operations
	seq      uint64
	put      bool
	opStart  int64
	coordAt  atomic.Int64 // when the 1.5-round coordinator request left
	lastPush atomic.Int64
}

// session returns the traced endpoint state for (dc, id), creating it on
// first use; the mux decorator and the driver share it.
func (t *tracer) session(dc int, id wire.SessionID) *tracedSession {
	key := uint64(dc)<<32 | uint64(id)
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	s := t.sessions[key]
	if s == nil {
		s = &tracedSession{t: t, dc: dc}
		t.sessions[key] = s
	}
	return s
}

func (s *tracedSession) begin(put bool, at time.Time) {
	s.seq++
	s.put = put
	s.opStart = int64(at.Sub(s.t.base))
	s.coordAt.Store(0)
	s.op.Store(uint64(s.Session.ID())<<32 | uint64(s.dc)<<28 | s.seq&0xFFFFFFF)
}

func (s *tracedSession) end(at time.Time) {
	t := s.t
	op := s.op.Swap(0)
	if !t.on.Load() {
		return
	}
	if !s.put {
		t.clientRots.Add(1)
	}
	if c := s.coordAt.Load(); c != 0 {
		// The 1.5-round ROT blocks from the coordinator request to the last
		// direct answer: one "call" as the client experiences it.
		t.record(span{Kind: kindCall, Class: clsRot, Node: s.Addr(), Sess: uint32(s.ID()), Op: op, Start: c, End: max(s.lastPush.Load(), c)})
	}
	cls := uint8(clsRot)
	if s.put {
		cls = clsPut
	}
	t.record(span{Kind: kindOp, Class: cls, Put: s.put, Node: s.Addr(), Sess: uint32(s.ID()), Op: op, Start: s.opStart, End: int64(at.Sub(t.base))})
}

func (s *tracedSession) Send(dst wire.Addr, m wire.Message) error {
	if s.t.on.Load() {
		s.t.sample(s.Addr(), dst, s.ID(), false, m)
		s.t.clientReqs.Add(1)
		if m.Type() == wire.TRotCoordReq {
			s.coordAt.Store(s.t.now())
		}
	}
	return s.Session.Send(dst, m)
}

func (s *tracedSession) Call(ctx context.Context, dst wire.Addr, m wire.Message) (wire.Message, error) {
	t := s.t
	if !t.on.Load() {
		return s.Session.Call(ctx, dst, m)
	}
	t.sample(s.Addr(), dst, s.ID(), false, m)
	cls := callClass(m.Type())
	if cls == clsRot {
		t.clientReqs.Add(1)
	}
	sp := span{Kind: kindCall, Class: uint8(cls), Node: s.Addr(), Peer: dst, Sess: uint32(s.ID()), Op: s.op.Load(), Start: t.now()}
	resp, err := s.Session.Call(ctx, dst, m)
	sp.End = t.now()
	t.record(sp)
	return resp, err
}

// --- durability decorator ---------------------------------------------------

type tracedWAL struct {
	wal.Durability
	t    *tracer
	addr wire.Addr
}

func (t *tracer) durability(d wal.Durability, addr wire.Addr) wal.Durability {
	return &tracedWAL{d, t, addr}
}

func (w *tracedWAL) Append(recs ...wal.Record) error {
	start := w.t.now()
	err := w.Durability.Append(recs...)
	w.done(start)
	return err
}

func (w *tracedWAL) AppendSynced(recs []wal.Record, synced func(error)) error {
	start := w.t.now()
	err := w.Durability.AppendSynced(recs, synced)
	w.done(start)
	return err
}

func (w *tracedWAL) done(start int64) {
	if w.t.on.Load() {
		w.t.record(span{Kind: kindWAL, Class: clsAppend, Node: w.addr, Start: start, End: w.t.now()})
	}
}

// --- span file ------------------------------------------------------------------

// writeSpans writes the recorded spans as JSON: name, start, end, parent and
// op id, as the tracing rules ask.
func writeSpans(path string, spans []span) error {
	type row struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Node   string `json:"node"`
		Op     uint64 `json:"op"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, s := range spans {
		name := kindNames[s.Kind]
		if s.Kind == kindOp {
			name += map[bool]string{true: ".put", false: ".rot"}[s.Put]
		} else {
			name += "." + classNames[s.Class]
		}
		if err := enc.Encode(row{i, name, s.Node.String(), s.Op, s.Parent, s.Start, s.End}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
