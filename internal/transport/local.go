package transport

import (
	"container/heap"
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// LatencyModel computes one-way message delays for the in-process network.
// The defaults approximate the paper's testbed: a fast LAN within a DC and
// an emulated WAN between DCs (the paper itself runs DCs over a LAN and
// argues that suffices, §5.2).
type LatencyModel struct {
	// IntraDC is the one-way delay between two nodes in the same DC.
	IntraDC time.Duration
	// InterDC is the one-way delay between nodes in different DCs.
	InterDC time.Duration
	// JitterFrac adds uniform jitter in [0, JitterFrac] of the base delay.
	JitterFrac float64
	// InterDCLoss drops this fraction of cross-DC messages, modelling WAN
	// loss; replication must mask it by retrying (acked batches).
	InterDCLoss float64
}

// DefaultLatency mirrors a 10 Gbps LAN plus an emulated remote DC.
func DefaultLatency() LatencyModel {
	return LatencyModel{IntraDC: 100 * time.Microsecond, InterDC: time.Millisecond, JitterFrac: 0.1}
}

// Drop reports whether a message from src to dst should be lost.
func (l LatencyModel) Drop(src, dst wire.Addr) bool {
	return l.InterDCLoss > 0 && src.DC() != dst.DC() && rand.Float64() < l.InterDCLoss
}

// Delay returns the one-way delay from src to dst.
func (l LatencyModel) Delay(src, dst wire.Addr) time.Duration {
	base := l.IntraDC
	if src.DC() != dst.DC() {
		base = l.InterDC
	}
	if base <= 0 {
		return 0
	}
	if l.JitterFrac > 0 {
		base += time.Duration(rand.Float64() * l.JitterFrac * float64(base))
	}
	return base
}

// Local is an in-process Network. Every message is marshalled through the
// wire codec on send and unmarshalled on delivery, so serialization CPU
// cost is faithfully charged, and delivery is delayed per the LatencyModel.
//
// Sends flow through the same batching engine as the TCP transport (see
// batch.go), one Batcher per (source DC, destination node) link — the
// simulator's stand-in for a shared egress pipe. A coalesced batch is
// charged ONE latency sample and its frames arrive together, so the
// batching behaviour real deployments get from scatter-gather socket
// writes shows up in simulated latencies and the same Stats columns.
//
// Delayed delivery does not use runtime timers: on stock kernels their
// granularity (≥1 ms on this class of machine) would swamp the sub-ms LAN
// latencies under study. Instead, sharded delivery wheels block on a
// channel while idle and spin only when the next delivery is imminent,
// giving microsecond-accurate injection (README, "Transport batching").
type Local struct {
	latency    LatencyModel
	pol        BatchPolicy
	stats      Stats
	admit      AdmitConfig
	admitStats AdmitStats
	wheels     []*wheel

	// lossBits holds the current cross-DC loss fraction (float64 bits),
	// runtime-adjustable so fault tests can sever and heal the WAN
	// mid-workload (SetInterDCLoss). Seeded from latency.InterDCLoss.
	lossBits atomic.Uint64

	// links holds the per-(source DC, destination) batchers, created
	// lazily on first send and torn down with the network. Lookups on the
	// send hot path are lock-free (sync.Map); linkMu only serializes
	// creation and close.
	linkMu     sync.Mutex
	links      sync.Map // link key (srcDC<<32|dst) -> *Batcher
	linkWG     sync.WaitGroup
	linkClosed bool

	mu     sync.RWMutex
	nodes  map[wire.Addr]*localNode
	closed bool
}

// numWheels shards delayed delivery to avoid a single dispatcher
// bottleneck at high message rates.
const numWheels = 4

// NewLocal returns an empty in-process network with the default adaptive
// batch policy.
func NewLocal(latency LatencyModel) *Local {
	return NewLocalOpts(latency, DefaultPolicy())
}

// NewLocalOpts is NewLocal with an explicit batch policy (cluster.Config
// wires its flush knobs through here).
func NewLocalOpts(latency LatencyModel, pol BatchPolicy) *Local {
	l := &Local{
		latency: latency,
		pol:     pol.withDefaults(),
		nodes:   make(map[wire.Addr]*localNode),
	}
	l.lossBits.Store(math.Float64bits(latency.InterDCLoss))
	for i := 0; i < numWheels; i++ {
		w := &wheel{net: l, ch: make(chan delivery, 8192), stop: make(chan struct{})}
		l.wheels = append(l.wheels, w)
		go w.run()
	}
	return l
}

// link returns (creating if needed) the batcher for the src→dst flight.
// Links are keyed by source DC, not source node: the latency model only
// distinguishes DCs, so nodes in one DC share the egress pipe to each
// destination, which keeps the link table proportional to nodes, not
// node pairs.
func (l *Local) link(src, dst wire.Addr) (*Batcher, error) {
	key := uint64(src.DC())<<32 | uint64(dst)
	if b, ok := l.links.Load(key); ok {
		return b.(*Batcher), nil
	}
	l.linkMu.Lock()
	defer l.linkMu.Unlock()
	if l.linkClosed {
		return nil, ErrClosed
	}
	if b, ok := l.links.Load(key); ok {
		return b.(*Batcher), nil
	}
	b := NewBatcher(&localSink{l: l, src: src, dst: dst}, l.pol, &l.stats)
	l.links.Store(key, b)
	l.linkWG.Add(1)
	go func() {
		defer l.linkWG.Done()
		b.Run()
	}()
	return b, nil
}

// localSink delivers one coalesced batch as a single simulated flight: the
// whole batch is charged one latency sample and its frames arrive
// together, mirroring how a TCP batch shares one scatter-gather write.
// Only src's DC matters for the delay (see link).
type localSink struct {
	l        *Local
	src, dst wire.Addr
}

func (s *localSink) WriteBatch(frames []*wire.FrameBuf) error {
	if d := s.l.latency.Delay(s.src, s.dst); d > 0 {
		// The delivery outlives this call and the Batcher reuses its batch
		// slice, so the wheel gets a copy.
		batch := make([]*wire.FrameBuf, len(frames))
		copy(batch, frames)
		w := s.l.wheels[int(s.dst)%numWheels]
		select {
		case w.ch <- delivery{at: time.Now().Add(d), bufs: batch}:
			return nil
		case <-w.stop:
			for _, f := range batch {
				wire.PutFrame(f)
			}
			return ErrClosed
		}
	}
	// Zero delay: dispatchBatch only spawns per-frame goroutines, so it
	// neither blocks nor retains the slice — no copy, no wrapper goroutine.
	s.l.dispatchBatch(frames)
	return nil
}

// Stats exposes the network's traffic counters.
func (l *Local) Stats() *Stats { return &l.stats }

// AdmitStats exposes the admission-control counters (all zero while
// admission is disabled).
func (l *Local) AdmitStats() *AdmitStats { return &l.admitStats }

// SetAdmission configures client admission control for nodes attached
// AFTER the call, exactly as on the TCP transport: each server-address
// node gets its own gate, applied only to requests whose source carries
// the client flag. Call it before attaching servers.
func (l *Local) SetAdmission(cfg AdmitConfig) {
	l.mu.Lock()
	l.admit = cfg
	l.mu.Unlock()
}

// SetInterDCLoss changes the cross-DC loss fraction at runtime. Fault
// tests use 1.0 to sever the WAN (isolating a DC while it keeps serving
// locally) and 0 to heal it.
func (l *Local) SetInterDCLoss(frac float64) {
	l.lossBits.Store(math.Float64bits(frac))
}

// dropMsg applies the current loss fraction to one src→dst flight, using
// the shared LatencyModel predicate so the loss semantics live in one
// place.
func (l *Local) dropMsg(src, dst wire.Addr) bool {
	return LatencyModel{InterDCLoss: math.Float64frombits(l.lossBits.Load())}.Drop(src, dst)
}

// Attach registers addr with handler h.
func (l *Local) Attach(addr wire.Addr, h Handler) (Node, error) {
	return l.attach(addr, h)
}

// AttachMux registers addr as a multiplexed client endpoint. The simulator
// has no sockets, so the pool size is ignored, but sessions travel the
// same envelope fields and demultiplex through the same per-session
// handler routing as on TCP — internal/check exercises the mux paths on
// this transport.
func (l *Local) AttachMux(addr wire.Addr, _ int) (Mux, error) {
	return l.attach(addr, nil)
}

func (l *Local) attach(addr wire.Addr, h Handler) (*localNode, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if _, dup := l.nodes[addr]; dup {
		return nil, ErrAttached
	}
	n := &localNode{net: l, addr: addr, h: h, stop: make(chan struct{})}
	if addr.IsServer() && l.admit.Enabled() {
		n.gate = NewAdmitGate(l.admit, &l.admitStats)
	}
	l.nodes[addr] = n
	return n, nil
}

// Close detaches every node. In-flight messages are dropped.
func (l *Local) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for a, n := range l.nodes {
		n.shutdown()
		delete(l.nodes, a)
	}
	l.mu.Unlock()
	// Stop the link batchers and wait them out BEFORE stopping the wheels:
	// a final flush must find its wheel alive (frames to already-closed
	// nodes are dropped at dispatch, as before).
	l.linkMu.Lock()
	l.linkClosed = true
	l.links.Range(func(_, b any) bool {
		b.(*Batcher).Close()
		return true
	})
	l.linkMu.Unlock()
	l.linkWG.Wait()
	for _, w := range l.wheels {
		close(w.stop)
	}
	return nil
}

func (l *Local) lookup(addr wire.Addr) *localNode {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.nodes[addr]
}

// dispatchBatch fans a delivered batch out to per-frame dispatch
// goroutines: the frames arrive at the same instant (one latency charge),
// but each handler gets its own goroutine — handlers may block on cluster
// state another frame of the same batch would satisfy, so sequential
// in-batch handling could deadlock.
func (l *Local) dispatchBatch(bufs []*wire.FrameBuf) {
	for _, f := range bufs {
		go l.dispatch(f)
	}
}

// dispatch routes a marshalled envelope after its simulated flight. It
// consumes f, returning it to the frame pool once decoded.
func (l *Local) dispatch(f *wire.FrameBuf) {
	env, err := wire.DecodeEnvelope(f.B)
	wire.PutFrame(f) // DecodeEnvelope copies fields out; safe to recycle
	if err != nil {
		l.stats.Dropped.Add(1)
		return
	}
	dst := l.lookup(env.Dst)
	if dst == nil || dst.closed.Load() {
		l.stats.Dropped.Add(1)
		wire.Recycle(env.Msg)
		return
	}
	if env.Resp {
		dst.deliverResponse(env)
		return
	}
	// Demultiplex direct pushes to a registered session exactly as the TCP
	// read loop does: the session's handler runs against the session node,
	// and src carries no session (the id was the frame's destination).
	node, h, src := Node(dst), dst.h, wire.From{Addr: env.Src, Sess: env.Session}
	if env.Session != 0 {
		if s, ok := dst.sessions.Load(uint32(env.Session)); ok {
			ls := s.(*localSession)
			node, h, src = ls, ls.h, wire.At(env.Src)
		}
	}
	if h == nil {
		// Mux endpoint, no live session for the frame: drop with accounting.
		l.stats.Dropped.Add(1)
		wire.Recycle(env.Msg)
		return
	}
	// Client admission control, mirroring tcpNode.dispatch: shed excess
	// client load with a typed Busy; cluster-sourced traffic is never
	// gated (handlers may park on cluster state, and the message that
	// unblocks them must always dispatch). Shedding here runs on this
	// dispatch goroutine — Local already pays one goroutine per frame, so
	// there is no read path to protect — while parked requests resume on a
	// gate-spawned goroutine when a token frees.
	if dst.gate != nil && env.Src.IsClient() {
		exec := func() {
			h.Handle(node, src, env.ReqID, env.Msg)
			wire.Recycle(env.Msg)
			dst.gate.Release()
		}
		switch dst.gate.Submit(env.Session.Tenant(), exec, func() {
			wire.Recycle(env.Msg)
			l.stats.Dropped.Add(1)
		}) {
		case AdmitShed:
			l.shed(dst, env)
			return
		case AdmitQueued:
			return
		case AdmitGranted:
		}
		exec()
		return
	}
	h.Handle(node, src, env.ReqID, env.Msg)
	wire.Recycle(env.Msg)
}

// shed answers one declined client request with Busy (or drops it with
// accounting when it is neither awaited nor correlated).
func (l *Local) shed(dst *localNode, env *wire.Envelope) {
	reqID, echo := env.ReqID, uint64(0)
	if reqID == 0 {
		corr, ok := env.Msg.(wire.Correlated)
		if !ok {
			wire.Recycle(env.Msg)
			l.stats.Dropped.Add(1)
			return
		}
		echo = corr.CorrelationID()
	}
	wire.Recycle(env.Msg)
	hint := busyHintMicros(dst.gate, env.Session.Tenant())
	to := wire.From{Addr: env.Src, Sess: env.Session}
	if reqID != 0 {
		_ = dst.Respond(to, reqID, &wire.Busy{RetryAfterMicros: hint})
	} else {
		_ = dst.SendTo(to, &wire.Busy{Echo: echo, RetryAfterMicros: hint})
	}
}

// delivery is one in-flight coalesced batch.
type delivery struct {
	at   time.Time
	bufs []*wire.FrameBuf
}

// deliveryHeap is a min-heap of deliveries by due time.
type deliveryHeap []delivery

func (h deliveryHeap) Len() int           { return len(h) }
func (h deliveryHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h deliveryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)        { *h = append(*h, x.(delivery)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	*h = old[:n-1]
	return d
}

// spinHorizon is how close a due time must be before the wheel spins for
// it rather than sleeping; it exceeds the host timer slack so sleeps never
// overshoot a due time.
const spinHorizon = 2 * time.Millisecond

// wheel delivers delayed messages with microsecond accuracy.
type wheel struct {
	net  *Local
	ch   chan delivery
	h    deliveryHeap
	stop chan struct{}
}

func (w *wheel) run() {
	for {
		// Idle: block until work or shutdown (channel wakes are fast).
		if len(w.h) == 0 {
			select {
			case d := <-w.ch:
				heap.Push(&w.h, d)
			case <-w.stop:
				return
			}
		}
		// Drain whatever else arrived.
		for {
			select {
			case d := <-w.ch:
				heap.Push(&w.h, d)
				continue
			case <-w.stop:
				return
			default:
			}
			break
		}
		// Deliver everything due.
		now := time.Now()
		for len(w.h) > 0 && !w.h[0].at.After(now) {
			d := heap.Pop(&w.h).(delivery)
			w.net.dispatchBatch(d.bufs)
		}
		if len(w.h) == 0 {
			continue
		}
		// Far-future head: sleep most of the gap, waking early for new
		// messages; imminent head: spin.
		wait := time.Until(w.h[0].at)
		if wait > spinHorizon {
			t := time.NewTimer(wait - spinHorizon)
			select {
			case d := <-w.ch:
				heap.Push(&w.h, d)
			case <-t.C:
			case <-w.stop:
				t.Stop()
				return
			}
			t.Stop()
		} else {
			runtime.Gosched()
		}
	}
}

type localNode struct {
	net    *Local
	addr   wire.Addr
	h      Handler    // nil for mux endpoints
	gate   *AdmitGate // client admission gate; nil unless SetAdmission enabled it
	closed atomic.Bool

	// sessions holds the registered logical sessions of a mux endpoint
	// (uint32(wire.SessionID) → *localSession); empty on plain nodes.
	sessions sync.Map

	// stop fires when the node (or its network) closes, so Calls waiting
	// on responses that can never arrive — dispatch drops in-flight
	// messages at close — abort promptly instead of riding out their ctx.
	stop     chan struct{}
	stopOnce sync.Once

	reqSeq  atomic.Uint64
	pending sync.Map // reqID -> chan *wire.Envelope
}

// shutdown marks the node closed, drains the admission gate's park queues,
// and releases its waiting Calls and sessions.
func (n *localNode) shutdown() {
	n.closed.Store(true)
	n.stopOnce.Do(func() { close(n.stop) })
	if n.gate != nil {
		n.gate.Close()
	}
	n.sessions.Range(func(k, s any) bool {
		if !s.(*localSession).closed.Swap(true) {
			n.net.stats.Sessions.Add(-1)
		}
		n.sessions.Delete(k)
		return true
	})
}

func (n *localNode) Addr() wire.Addr { return n.addr }

// Session registers a logical session on this endpoint, mirroring the TCP
// mux: frames the session sends carry its id, and inbound one-way frames
// carrying the id reach h.
func (n *localNode) Session(id wire.SessionID, h Handler) (Session, error) {
	if id == 0 {
		return nil, errors.New("transport: zero session id")
	}
	if n.closed.Load() {
		return nil, ErrClosed
	}
	s := &localSession{n: n, id: id, h: h}
	if _, dup := n.sessions.LoadOrStore(uint32(id), s); dup {
		return nil, ErrAttached
	}
	n.net.stats.Sessions.Add(1)
	return s, nil
}

func (n *localNode) send(ctx context.Context, env *wire.Envelope) error {
	if n.closed.Load() {
		return ErrClosed
	}
	f := wire.GetFrame()
	f.Envelope(env)
	bytes := uint64(len(f.B))
	if n.net.dropMsg(env.Src, env.Dst) {
		n.net.stats.Dropped.Add(1)
		wire.PutFrame(f) // lost in flight; sender cannot tell
	} else {
		b, err := n.net.link(env.Src, env.Dst)
		if err != nil {
			wire.PutFrame(f)
			return err
		}
		// A full link queue exerts backpressure until ctx is done or the
		// link (network) closes — one-way Sends carry a Background ctx and
		// simply block, while a Call's deadline bounds its queueing too,
		// matching the TCP enqueue semantics.
		if err := b.Enqueue(ctx, f); err != nil {
			return err
		}
	}
	// Counted only once the message is committed to the network (or
	// charged as lost in flight), matching the TCP path: sends aborted by
	// shutdown must not inflate the traffic metrics benchmarks report.
	n.net.stats.MsgsSent.Add(1)
	n.net.stats.BytesSent.Add(bytes)
	return nil
}

// Send delivers a one-way message. Backpressure from a full link queue
// blocks until the link or network closes.
func (n *localNode) Send(dst wire.Addr, m wire.Message) error {
	return n.send(context.Background(), &wire.Envelope{Src: n.addr, Dst: dst, Msg: m})
}

// SendTo delivers a one-way message to a full destination, stamping the
// target session so a multiplexed client can demultiplex the push.
func (n *localNode) SendTo(to wire.From, m wire.Message) error {
	return n.send(context.Background(), &wire.Envelope{Src: n.addr, Dst: to.Addr, Session: to.Sess, Msg: m})
}

// Respond answers request reqID at the full origin to.
func (n *localNode) Respond(to wire.From, reqID uint64, m wire.Message) error {
	return n.send(context.Background(), &wire.Envelope{Src: n.addr, Dst: to.Addr, Session: to.Sess, ReqID: reqID, Resp: true, Msg: m})
}

// Call sends a request and waits for the matching response.
func (n *localNode) Call(ctx context.Context, dst wire.Addr, m wire.Message) (wire.Message, error) {
	return n.call(ctx, dst, m, 0)
}

// call is the shared Call engine: sessions stamp their id into the request
// envelope but share the node's request-id space and pending table, so
// responses demultiplex by reqID alone.
func (n *localNode) call(ctx context.Context, dst wire.Addr, m wire.Message, sess wire.SessionID) (wire.Message, error) {
	id := n.reqSeq.Add(1)
	ch := make(chan *wire.Envelope, 1)
	n.pending.Store(id, ch)
	defer n.pending.Delete(id)
	err := n.send(ctx, &wire.Envelope{Src: n.addr, Dst: dst, Session: sess, ReqID: id, Msg: m})
	if err != nil {
		return nil, err
	}
	select {
	case env := <-ch:
		return unwrapResp(env)
	case <-n.stop:
		// Node (or network) shut down while waiting; dispatch drops
		// in-flight messages, so no further response can arrive. Prefer
		// one that already did (select picks ready cases at random) over
		// reporting a completed operation as failed.
		select {
		case env := <-ch:
			return unwrapResp(env)
		default:
		}
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// deliverResponse hands a response to its waiting Call. A response nobody
// is waiting for — the Call's ctx expired and deleted the pending entry,
// or a duplicate already filled the channel — must still be accounted and
// its pooled message recycled; silently discarding it leaked pool capacity
// and hid the drop from the stats.
func (n *localNode) deliverResponse(env *wire.Envelope) {
	if ch, ok := n.pending.Load(env.ReqID); ok {
		select {
		case ch.(chan *wire.Envelope) <- env:
			return
		default: // duplicate response
		}
	}
	n.net.stats.Dropped.Add(1)
	wire.Recycle(env.Msg)
}

// Close detaches the node from the network.
func (n *localNode) Close() error {
	n.shutdown()
	n.net.mu.Lock()
	delete(n.net.nodes, n.addr)
	n.net.mu.Unlock()
	return nil
}

// localSession is one logical session on a mux endpoint, mirroring
// tcpSession: it shares the endpoint's request-id space and pending table,
// stamps its id into outbound envelopes, and receives inbound pushes
// addressed to the id.
type localSession struct {
	n      *localNode
	id     wire.SessionID
	h      Handler
	closed atomic.Bool
}

func (s *localSession) Addr() wire.Addr    { return s.n.addr }
func (s *localSession) ID() wire.SessionID { return s.id }

// env builds a session-stamped envelope toward to (an explicit session in
// to wins over the session's own id, as on TCP).
func (s *localSession) env(to wire.From, reqID uint64, resp bool, m wire.Message) *wire.Envelope {
	sess := s.id
	if to.Sess != 0 {
		sess = to.Sess
	}
	return &wire.Envelope{Src: s.n.addr, Dst: to.Addr, Session: sess, ReqID: reqID, Resp: resp, Msg: m}
}

// Send delivers a one-way message carrying the session id.
func (s *localSession) Send(dst wire.Addr, m wire.Message) error {
	return s.SendTo(wire.At(dst), m)
}

// SendTo delivers a one-way message to a full destination.
func (s *localSession) SendTo(to wire.From, m wire.Message) error {
	if s.closed.Load() {
		return ErrClosed
	}
	return s.n.send(context.Background(), s.env(to, 0, false, m))
}

// Respond answers request reqID at to.
func (s *localSession) Respond(to wire.From, reqID uint64, m wire.Message) error {
	if s.closed.Load() {
		return ErrClosed
	}
	return s.n.send(context.Background(), s.env(to, reqID, true, m))
}

// Call sends a request and waits for the matching response.
func (s *localSession) Call(ctx context.Context, dst wire.Addr, m wire.Message) (wire.Message, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.n.call(ctx, dst, m, s.id)
}

// Close deregisters the session; in-flight pushes to it are dropped with
// accounting (and their pooled messages recycled) by dispatch.
func (s *localSession) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.n.sessions.Delete(uint32(s.id))
	s.n.net.stats.Sessions.Add(-1)
	return nil
}
