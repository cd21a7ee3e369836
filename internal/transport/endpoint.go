package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// endpoint is everything about an attached node that does not depend on
// what carries its frames: the request-id space and pending table behind
// Call, the Send/SendTo/Respond envelopes, session registration and the
// routing of inbound pushes to sessions, the one inbound path (serve:
// admission, the Busy a shed request gets, the handler run), and the
// close-once teardown, and the workers inbound frames run on (spawn).
// localNode and tcpNode embed it and differ only in the carrier — how a
// frame leaves (carry) and where an inbound frame is read from — so the
// simulator the figures are measured on and the transport kvserver deploys
// execute the same calls, sessions, workers and shed path.
//
// The seam is one function. carry takes the envelope BY VALUE: behind a
// func value the compiler cannot see that the callee does not retain a
// pointer, so &wire.Envelope{…} here would escape — one 48-byte allocation
// per message sent (go build -gcflags=-m; BenchmarkEndpointCall pins it).
type endpoint struct {
	addr  wire.Addr
	h     Handler    // nil for mux endpoints
	gate  *AdmitGate // client admission gate; nil unless SetAdmission set a limit
	stats *Stats

	// self is the embedding node: handlers are handed it, not the endpoint,
	// so a handler's Close detaches the node from its network.
	self Node
	// carry commits one envelope to the carrier, blocking on backpressure
	// until ctx is done or the carrier closes.
	carry func(ctx context.Context, env wire.Envelope) error

	// sessions holds the registered logical sessions of a mux endpoint
	// (uint32(wire.SessionID) → *session); empty on plain nodes.
	sessions sync.Map

	// stop fires when the node (or its network) closes, so Calls waiting on
	// responses that can never arrive — in-flight frames are dropped at
	// close — abort promptly instead of riding out their ctx.
	stop   chan struct{}
	closed atomic.Bool
	// wg counts the goroutines a closing node waits out: TCP's
	// accept/read/write loops, every worker, and every inbound request,
	// from before it is spawned until serve gives its slot back. Local's
	// Close waits on none of them; its handlers are released by stop.
	wg sync.WaitGroup

	// idle is where workers between requests wait for their next one
	// (spawn); unbuffered, so a hand-off succeeds only to a worker already
	// waiting. idlers counts the waiting workers, at most maxIdleWorkers.
	idle   chan func()
	idlers atomic.Int32

	reqSeq  atomic.Uint64
	pending sync.Map // reqID -> chan *wire.Envelope
}

func (e *endpoint) Addr() wire.Addr { return e.addr }

// post sends one envelope that expects no response through the carrier.
func (e *endpoint) post(to wire.From, reqID uint64, resp bool, m wire.Message) error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.carry(context.Background(),
		wire.Envelope{Src: e.addr, Dst: to.Addr, Session: to.Sess, ReqID: reqID, Resp: resp, Msg: m})
}

// Send delivers a one-way message. Backpressure from a full send queue
// blocks until the carrier (link, connection) or node closes.
func (e *endpoint) Send(dst wire.Addr, m wire.Message) error {
	return e.post(wire.At(dst), 0, false, m)
}

// SendTo delivers a one-way message to a full destination, stamping the
// target session so a multiplexed client can demultiplex the push.
func (e *endpoint) SendTo(to wire.From, m wire.Message) error {
	return e.post(to, 0, false, m)
}

// Respond answers request reqID at the full origin to.
func (e *endpoint) Respond(to wire.From, reqID uint64, m wire.Message) error {
	return e.post(to, reqID, true, m)
}

// Call sends a request and waits for the matching response.
func (e *endpoint) Call(ctx context.Context, dst wire.Addr, m wire.Message) (wire.Message, error) {
	return e.call(ctx, dst, m, 0)
}

// call is the Call engine: sessions stamp their id into the request
// envelope but share the endpoint's carrier, request-id space and pending
// table, so responses demultiplex by reqID alone.
func (e *endpoint) call(ctx context.Context, dst wire.Addr, m wire.Message, sess wire.SessionID) (wire.Message, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	id := e.reqSeq.Add(1)
	ch := make(chan *wire.Envelope, 1)
	e.pending.Store(id, ch)
	defer e.pending.Delete(id)
	if err := e.carry(ctx, wire.Envelope{Src: e.addr, Dst: dst, Session: sess, ReqID: id, Msg: m}); err != nil {
		return nil, err
	}
	select {
	case env := <-ch:
		return unwrapResp(env)
	case <-e.stop:
		// Node (or network) shut down while waiting; in-flight frames are
		// dropped, so no further response can arrive. Prefer one that
		// already did (select picks ready cases at random) over reporting a
		// completed operation as failed; otherwise return promptly — this
		// also lets handlers parked in nested Calls finish, so a carrier's
		// Close cannot hang waiting for them.
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
// claims — the Call's ctx expired and deleted the pending entry, or a
// duplicate already filled the channel — is dropped WITH accounting: no
// waiter will ever retain the message, so silently discarding it leaked
// pool capacity and hid the drop from the stats.
func (e *endpoint) deliverResponse(env *wire.Envelope) {
	if ch, ok := e.pending.Load(env.ReqID); ok {
		select {
		case ch.(chan *wire.Envelope) <- env:
			return
		default: // duplicate response
		}
	}
	e.drop(env.Msg)
}

// drop accounts for an inbound message nothing will handle and returns it
// to its pool.
func (e *endpoint) drop(m wire.Message) {
	e.stats.Dropped.Add(1)
	wire.Recycle(m)
}

// inbound is one routed request: the handler and node to run it against (a
// session's own when the frame was a direct push to a registered session,
// the endpoint's otherwise), the full origin, and — when non-nil — the
// admission gate the request must pass; whoever runs it holds the gate's
// token until run returns it.
type inbound struct {
	node  Node
	h     Handler
	src   wire.From
	reqID uint64
	msg   wire.Message
	gate  *AdmitGate
}

// run handles the request, recycles its pooled message and returns the
// admission token. The receiver is a value on purpose: serve hands a
// closure over in to gate.Submit, and a pointer receiver there would move
// every routed inbound to the heap, the ungated ones included.
func (in inbound) run() {
	in.h.Handle(in.node, in.src, in.reqID, in.msg)
	wire.Recycle(in.msg)
	if in.gate != nil {
		in.gate.Release()
	}
}

// maxIdleWorkers bounds the workers one endpoint keeps waiting for work
// between requests. Only the idle set is bounded: a request that finds no
// idle worker starts a new one, so running work is never capped and never
// waits (see serve).
const maxIdleWorkers = 64

// spawn runs fn on a worker of its own: an idle one if any is waiting,
// else a new goroutine. Either way spawn never blocks. A worker that
// finishes stays to wait for the next request — its stack already grown
// down the handler chain, which a fresh goroutine would grow again — unless
// maxIdleWorkers already wait, and every idle worker exits once the
// endpoint closes.
func (e *endpoint) spawn(fn func()) {
	select {
	case e.idle <- fn:
	default:
		e.wg.Add(1)
		go e.work(fn)
	}
}

// work is a worker's life: run fn, then wait as an idle worker for the
// next request until the idle set is full or the endpoint closes.
func (e *endpoint) work(fn func()) {
	defer e.wg.Done()
	for {
		fn()
		if e.idlers.Add(1) > maxIdleWorkers {
			e.idlers.Add(-1)
			return
		}
		select {
		case fn = <-e.idle:
			e.idlers.Add(-1)
		case <-e.stop:
			e.idlers.Add(-1)
			return
		}
	}
}

// serve is the one inbound path of both carriers. It routes a request and
// runs it on the calling worker, which the carrier spawned for this frame
// (Local: one per frame; TCP: one per request, spawned by the read loop).
// Running work is deliberately unbounded: handlers may park on cluster
// state (a COPS dep check waiting for replication, a CC-LO readers check
// waiting for a dependency's install), and the very message that would
// unblock them must never queue behind them — any cap on concurrently
// running intra-cluster handlers recreates that deadlock for the requests
// beyond the cap. A client request passes the admission gate first: shed,
// it is answered Busy from here; parked, it runs on the goroutine the gate
// starts when a token frees, or is dropped when the gate closes.
//
// The caller holds one wg slot for the request, taken before the request
// was spawned, and serve gives it back once the request is dropped,
// shed or handled, parked ones included. That slot is all TCP's Close needs
// to wait out every handler, running or parked; a bound on handlers, when
// one comes, lands here for both carriers.
func (e *endpoint) serve(env *wire.Envelope) {
	in, ok := e.route(env)
	if !ok {
		e.wg.Done()
		return
	}
	if in.gate != nil {
		switch in.gate.Submit(env.Session.Tenant(), func() {
			in.run()
			e.wg.Done()
		}, func() {
			e.drop(env.Msg)
			e.wg.Done()
		}) {
		case AdmitShed:
			e.shed(env)
			e.wg.Done()
			return
		case AdmitQueued:
			return
		case AdmitGranted:
		}
	}
	in.run()
	e.wg.Done()
}

// route turns a request envelope into the inbound to run. A frame carrying
// the id of a registered session (a direct server push to one session of
// this mux) runs that session's handler against the session node; the
// session id is the frame's destination there, so src carries no session.
// Everything else runs the endpoint handler with the full origin. A mux
// endpoint has no base handler: a frame for no live session (or a push to
// one registered without a handler) has nowhere to go and is dropped with
// accounting (ok false).
//
// gate is set only for client-sourced requests: excess client load is shed
// with a typed Busy or parked, while cluster-sourced traffic is never
// gated — handlers may park on cluster state, and the message that
// unblocks them must always dispatch.
func (e *endpoint) route(env *wire.Envelope) (in inbound, ok bool) {
	in = inbound{
		node:  e.self,
		h:     e.h,
		src:   wire.From{Addr: env.Src, Sess: env.Session},
		reqID: env.ReqID,
		msg:   env.Msg,
	}
	if env.Session != 0 {
		if s, live := e.sessions.Load(uint32(env.Session)); live {
			sess := s.(*session)
			in.node, in.h, in.src = sess, sess.h, wire.At(env.Src)
		}
	}
	if in.h == nil {
		e.drop(env.Msg)
		return in, false
	}
	if e.gate != nil && env.Src.IsClient() {
		in.gate = e.gate
	}
	return in, true
}

// shed answers a request the gate declined with a Busy hinted by the shed
// tenant's queue pressure: to its reqID when it is awaited, echoing its id
// when it is a correlated one-way. A request that is neither has no
// address to send Busy to and is dropped with accounting. Best effort: the
// client's deadline is the backstop.
func (e *endpoint) shed(env *wire.Envelope) {
	var echo uint64
	if env.ReqID == 0 {
		corr, ok := env.Msg.(wire.Correlated)
		if !ok {
			e.drop(env.Msg)
			return
		}
		echo = corr.CorrelationID()
	}
	wire.Recycle(env.Msg)
	busy := &wire.Busy{Echo: echo, RetryAfterMicros: busyHintMicros(e.gate, env.Session.Tenant())}
	_ = e.post(wire.From{Addr: env.Src, Sess: env.Session}, env.ReqID, env.ReqID != 0, busy)
}

// shut marks the endpoint closed, releases its waiting Calls, drains the
// admission gate's park queues and deregisters its sessions. It reports
// whether this call did the closing; the carrier's own teardown follows.
func (e *endpoint) shut() bool {
	if e.closed.Swap(true) {
		return false
	}
	close(e.stop)
	if e.gate != nil {
		e.gate.Close()
	}
	e.sessions.Range(func(_, s any) bool {
		_ = s.(*session).Close()
		return true
	})
	return true
}

// Session registers a logical session on this endpoint. Sessions share the
// endpoint's carrier, request-id space and pending table; frames the
// session sends carry its id, and inbound one-way frames carrying the id
// reach h.
func (e *endpoint) Session(id wire.SessionID, h Handler) (Session, error) {
	if id == 0 {
		return nil, errors.New("transport: zero session id")
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	s := &session{e: e, id: id, h: h}
	if _, dup := e.sessions.LoadOrStore(uint32(id), s); dup {
		return nil, ErrAttached
	}
	e.stats.Sessions.Add(1)
	// shut may have run between the check above and the store, its sweep
	// missing s. Seen closed now, s is withdrawn (Close is idempotent, so a
	// sweep that did reach it changes nothing); seen open, the store came
	// first, so the sweep that follows the flag will close s.
	if e.closed.Load() {
		_ = s.Close()
		return nil, ErrClosed
	}
	return s, nil
}

// session is one logical session on a mux endpoint. Only its envelopes
// differ from the endpoint's own (they carry the session id) and inbound
// pushes addressed to the id run h.
type session struct {
	e      *endpoint
	id     wire.SessionID
	h      Handler
	closed atomic.Bool
}

func (s *session) Addr() wire.Addr    { return s.e.addr }
func (s *session) ID() wire.SessionID { return s.id }

// post stamps the session id on an envelope toward to. A destination that
// already carries a session (a client relaying a server's From — unusual
// but well-formed) wins over the session's own id.
func (s *session) post(to wire.From, reqID uint64, resp bool, m wire.Message) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if to.Sess == 0 {
		to.Sess = s.id
	}
	return s.e.post(to, reqID, resp, m)
}

// Send delivers a one-way message carrying the session id.
func (s *session) Send(dst wire.Addr, m wire.Message) error {
	return s.post(wire.At(dst), 0, false, m)
}

// SendTo delivers a one-way message to a full destination.
func (s *session) SendTo(to wire.From, m wire.Message) error {
	return s.post(to, 0, false, m)
}

// Respond answers request reqID at to.
func (s *session) Respond(to wire.From, reqID uint64, m wire.Message) error {
	return s.post(to, reqID, true, m)
}

// Call sends a request and waits for the matching response.
func (s *session) Call(ctx context.Context, dst wire.Addr, m wire.Message) (wire.Message, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.e.call(ctx, dst, m, s.id)
}

// Close deregisters the session. What carries its frames stays up — it is
// shared — and any in-flight push to the session is dropped with
// accounting (and its pooled message recycled) by route.
func (s *session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.e.sessions.Delete(uint32(s.id))
	s.e.stats.Sessions.Add(-1)
	return nil
}
