package transport

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// bareEndpoint is an endpoint with no network under it: frames leave
// through the given carry and arrive when the test calls route or
// deliverResponse, so each branch runs without sockets, wheels or sleeps.
func bareEndpoint(carry func(e *endpoint, env wire.Envelope) error) (*endpoint, *Stats) {
	stats := new(Stats)
	e := &endpoint{addr: wire.ServerAddr(0, 0), stats: stats, stop: make(chan struct{})}
	e.self = plainNode{e}
	e.carry = func(_ context.Context, env wire.Envelope) error { return carry(e, env) }
	return e, stats
}

// plainNode completes a bare endpoint into a Node, as a carrier would.
type plainNode struct{ *endpoint }

func (n plainNode) Close() error { n.shut(); return nil }

// TestEndpointCallPrefersArrivedResponse: a response that arrived before
// the endpoint closed is the Call's result. With both channels ready a
// plain select picks at random; the nested select must make this 200/200.
func TestEndpointCallPrefersArrivedResponse(t *testing.T) {
	for i := 0; i < 200; i++ {
		e, _ := bareEndpoint(func(e *endpoint, env wire.Envelope) error {
			e.deliverResponse(&wire.Envelope{ReqID: env.ReqID, Resp: true, Msg: &wire.Pong{Nonce: 7}})
			e.shut()
			return nil
		})
		resp, err := e.Call(context.Background(), wire.ServerAddr(0, 1), &wire.Ping{Nonce: 7})
		if err != nil {
			t.Fatalf("run %d: completed call reported %v", i, err)
		}
		if pong, ok := resp.(*wire.Pong); !ok || pong.Nonce != 7 {
			t.Fatalf("run %d: resp %#v, want Pong{7}", i, resp)
		}
	}
	e, _ := bareEndpoint(func(e *endpoint, _ wire.Envelope) error { e.shut(); return nil })
	if _, err := e.Call(context.Background(), wire.ServerAddr(0, 1), &wire.Ping{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call with no response on a closed endpoint: %v, want ErrClosed", err)
	}
}

// TestEndpointStrayResponsesDropped: a duplicate of a delivered response
// and a response whose Call already gave up are each dropped with
// accounting.
func TestEndpointStrayResponsesDropped(t *testing.T) {
	var lastID uint64
	e, stats := bareEndpoint(func(e *endpoint, env wire.Envelope) error {
		lastID = env.ReqID
		e.deliverResponse(&wire.Envelope{ReqID: env.ReqID, Resp: true, Msg: &wire.Pong{Nonce: 1}})
		e.deliverResponse(&wire.Envelope{ReqID: env.ReqID, Resp: true, Msg: &probeMsg{N: 1}})
		if got := e.stats.Dropped.Load(); got != 1 {
			t.Errorf("duplicate response: Dropped = %d, want 1", got)
		}
		return nil
	})
	resp, err := e.Call(context.Background(), wire.ServerAddr(0, 1), &wire.Ping{Nonce: 1})
	if _, ok := resp.(*wire.Pong); err != nil || !ok {
		t.Fatalf("call = %#v, %v; the first response must win", resp, err)
	}
	e.deliverResponse(&wire.Envelope{ReqID: lastID, Resp: true, Msg: &probeMsg{N: 2}})
	if got := stats.Dropped.Load(); got != 2 {
		t.Fatalf("late response: Dropped = %d, want 2", got)
	}
}

// TestEndpointShedPath: a shed request that is awaited gets a Busy
// response to its reqID, a correlated one-way gets a Busy echoing its id to
// the shed session, and one that is neither is dropped with accounting.
func TestEndpointShedPath(t *testing.T) {
	var sent []wire.Envelope
	e, stats := bareEndpoint(func(_ *endpoint, env wire.Envelope) error {
		sent = append(sent, env)
		return nil
	})
	e.gate = NewAdmitGate(1, new(AdmitStats))
	cli, sess := wire.ClientAddr(0, 5), wire.MakeSession(2, 9)

	e.shed(&wire.Envelope{Src: cli, Session: sess, ReqID: 41, Msg: &wire.Ping{}})
	e.shed(&wire.Envelope{Src: cli, Session: sess, Msg: &wire.RotCoordReq{RotID: 77}})

	if len(sent) != 2 {
		t.Fatalf("sent %d Busy frames, want 2", len(sent))
	}
	for i, want := range []wire.Envelope{
		{Src: e.addr, Dst: cli, Session: sess, ReqID: 41, Resp: true},
		{Src: e.addr, Dst: cli, Session: sess},
	} {
		busy, isBusy := sent[i].Msg.(*wire.Busy)
		sent[i].Msg = nil
		if !isBusy || sent[i] != want {
			t.Fatalf("Busy %d: envelope %+v (busy=%v), want %+v", i, sent[i], isBusy, want)
		}
		if wantEcho := []uint64{0, 77}[i]; busy.Echo != wantEcho || busy.RetryAfter() != DefaultRetryAfter {
			t.Fatalf("Busy %d: %+v, want Echo %d and hint DefaultRetryAfter", i, busy, wantEcho)
		}
	}

	e.shed(&wire.Envelope{Src: cli, Msg: &probeMsg{N: 3}})
	if len(sent) != 2 {
		t.Fatal("a request neither awaited nor correlated has nowhere to send Busy")
	}
	if got := stats.Dropped.Load(); got != 1 {
		t.Fatalf("unanswerable shed: Dropped = %d, want 1", got)
	}
}

// TestEndpointRoute: a frame carrying a live session's id runs that
// session's handler against the session; a mux frame for an unknown or
// closed session is dropped with accounting, never handed to the mux's nil
// base handler; and only client-sourced requests are marked for the gate.
func TestEndpointRoute(t *testing.T) {
	e, stats := bareEndpoint(func(*endpoint, wire.Envelope) error { return nil })
	e.gate = NewAdmitGate(1, new(AdmitStats))
	var pushes int
	id := wire.MakeSession(1, 1)
	s, err := e.Session(id, HandlerFunc(func(n Node, src wire.From, _ uint64, _ wire.Message) {
		if sn, ok := n.(Session); !ok || sn.ID() != id || src != wire.At(wire.ServerAddr(0, 1)) {
			t.Errorf("push ran against node %#v from %+v", n, src)
		}
		pushes++
	}))
	if err != nil {
		t.Fatal(err)
	}
	push := func(sess wire.SessionID) (inbound, bool) {
		return e.route(&wire.Envelope{Src: wire.ServerAddr(0, 1), Dst: e.addr, Session: sess, Msg: &probeMsg{N: 4}})
	}

	in, ok := push(id)
	if !ok || in.gate != nil {
		t.Fatalf("live-session push from a server: ok=%v gate=%v, want routed and ungated", ok, in.gate)
	}
	in.run()
	if pushes != 1 {
		t.Fatalf("run: %d pushes handled, want 1", pushes)
	}

	if _, ok := push(wire.MakeSession(1, 2)); ok {
		t.Fatal("frame for an unknown session was routed")
	}
	s.Close()
	if _, ok := push(id); ok {
		t.Fatal("frame for a closed session was routed")
	}
	if got := stats.Dropped.Load(); got != 2 {
		t.Fatalf("unroutable frames: Dropped = %d, want 2", got)
	}

	e.h = HandlerFunc(func(Node, wire.From, uint64, wire.Message) {})
	in, ok = e.route(&wire.Envelope{Src: wire.ClientAddr(0, 5), Dst: e.addr, ReqID: 1, Msg: &wire.Ping{}})
	if !ok || in.gate != e.gate || in.node != e.self {
		t.Fatalf("client request: ok=%v gate=%v node=%#v; want gated, run against the embedding node", ok, in.gate, in.node)
	}
}

// TestEndpointShutDeregistersSessions: shut closes every session and
// returns the gauge to zero, and a closed endpoint registers no more.
func TestEndpointShutDeregistersSessions(t *testing.T) {
	e, stats := bareEndpoint(func(*endpoint, wire.Envelope) error { return nil })
	if _, err := e.Session(0, nil); err == nil {
		t.Fatal("session id 0 was accepted")
	}
	var all []Session
	for i := 1; i <= 3; i++ {
		s, err := e.Session(wire.MakeSession(1, uint16(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, s)
	}
	if _, err := e.Session(wire.MakeSession(1, 1), nil); !errors.Is(err, ErrAttached) {
		t.Fatalf("duplicate session id: %v, want ErrAttached", err)
	}
	all[0].Close()
	if !e.shut() || e.shut() {
		t.Fatal("shut must report true exactly once")
	}
	if got := stats.Sessions.Load(); got != 0 {
		t.Fatalf("Sessions gauge after shut = %d, want 0", got)
	}
	if _, err := e.Session(wire.MakeSession(1, 4), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Session after shut: %v, want ErrClosed", err)
	}
	if err := all[1].Send(wire.ServerAddr(0, 1), &wire.Ping{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on a session of a shut endpoint: %v, want ErrClosed", err)
	}
}

// TestEndpointSessionRacesShut: a session registered while the endpoint
// shuts must not outlive it. shut can set its flag and sweep the sessions
// between Session's check of closed and its store; a session stored after
// the sweep would never be closed, and the gauge would count it forever.
func TestEndpointSessionRacesShut(t *testing.T) {
	for i := 0; i < 1000; i++ {
		e, stats := bareEndpoint(func(*endpoint, wire.Envelope) error { return nil })
		got := make(chan Session, 4)
		var wg sync.WaitGroup
		for id := uint16(1); id <= 4; id++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if s, err := e.Session(wire.MakeSession(1, id), nil); err == nil {
					got <- s
				} else if !errors.Is(err, ErrClosed) {
					t.Errorf("Session: %v", err)
				}
			}()
		}
		e.shut()
		wg.Wait()
		close(got)
		for s := range got {
			if !s.(*session).closed.Load() {
				t.Fatalf("run %d: session %v registered during shut is still open", i, s.ID())
			}
		}
		if n := stats.Sessions.Load(); n != 0 {
			t.Fatalf("run %d: Sessions gauge = %d after shut, want 0", i, n)
		}
	}
}

// bothCarriers builds a fresh network of each carrier, with srv in TCP's
// directory.
func bothCarriers(t testing.TB, srv wire.Addr) map[string]func() Network {
	return map[string]func() Network{
		"local": func() Network { return NewLocal(LatencyModel{}) },
		"tcp":   func() Network { return NewTCP(map[wire.Addr]string{srv: freeAddr(t)}) },
	}
}

// endpointOf returns the endpoint under a node either carrier attached.
func endpointOf(t *testing.T, n Node) *endpoint {
	switch n := n.(type) {
	case *localNode:
		return &n.endpoint
	case *tcpNode:
		return &n.endpoint
	}
	t.Fatalf("%T is no carrier's node", n)
	return nil
}

// goid is the calling goroutine's id, read from its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [32]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestSequentialRequestReusesIdleWorker: once a request's worker has gone
// idle, the next request runs on that same goroutine — its stack already
// grown down the handler chain — instead of a new one, on both carriers.
// A worker counts itself idle just before it parks on the hand-off, so an
// attempt can start a new goroutine in that window; one reuse in three
// attempts is what the test asks.
func TestSequentialRequestReusesIdleWorker(t *testing.T) {
	srv := wire.ServerAddr(0, 0)
	for name, mk := range bothCarriers(t, srv) {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			ran := make(chan uint64, 1)
			n, err := net.Attach(srv, HandlerFunc(func(n Node, src wire.From, reqID uint64, m wire.Message) {
				ran <- goid()
				n.Respond(src, reqID, &wire.Pong{})
			}))
			if err != nil {
				t.Fatal(err)
			}
			e := endpointOf(t, n)
			cli, err := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			call := func() uint64 {
				if _, err := cli.Call(ctx, srv, &wire.Ping{}); err != nil {
					t.Fatal(err)
				}
				id := <-ran
				waitUntil(t, "the worker to go idle", func() bool { return e.idlers.Load() == 1 })
				return id
			}
			first := call()
			for attempt := 0; attempt < 3; attempt++ {
				next := call()
				if next == first {
					return
				}
				first = next
			}
			t.Fatal("three sequential requests after an idle worker each ran on a new goroutine")
		})
	}
}

// TestWorkersExitOnClose: the idle workers a burst of requests leaves
// behind exit when the network closes, so goroutines return to their
// baseline on both carriers.
func TestWorkersExitOnClose(t *testing.T) {
	srv := wire.ServerAddr(0, 0)
	for name, mk := range bothCarriers(t, srv) {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			net := mk()
			n, err := net.Attach(srv, &slowHandler{delay: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			cli, err := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			const burst = 16
			var wg sync.WaitGroup
			errs := make(chan error, burst)
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := cli.Call(ctx, srv, &wire.Ping{}); err != nil {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			e := endpointOf(t, n)
			waitUntil(t, "idle workers", func() bool { return e.idlers.Load() > 1 })
			net.Close()
			waitUntil(t, "goroutines back at their baseline", func() bool { return runtime.NumGoroutine() <= before })
			if g := e.idlers.Load(); g != 0 {
				t.Fatalf("%d workers still count as idle after Close", g)
			}
		})
	}
}

// FuzzEndpointInbound hands arbitrary bytes, as one frame body, to a Local
// node's dispatch: DecodeEnvelope, then route and serve for a request or
// deliverResponse for a response. Each input goes to two nodes, each on a
// network of its own (fuzzDispatch). Nothing may panic; a handler may run
// only for a frame that decodes as a request; Stats.Dropped may grow by at
// most two, the frame itself and the handler's one answer; and Close must
// return within 5 s.
func FuzzEndpointInbound(f *testing.F) {
	frame := func(env wire.Envelope) []byte { return wire.EncodeEnvelope(nil, &env) }
	ping := frame(wire.Envelope{Src: fuzzPeer, ReqID: 9, Msg: &wire.Ping{Nonce: 7}})
	f.Add(ping)
	f.Add(frame(wire.Envelope{Src: fuzzCli, ReqID: 9, Msg: &wire.Ping{Nonce: 7}}))                    // shed with Busy
	f.Add(frame(wire.Envelope{Src: fuzzCli, Session: fuzzSess, ReqID: 9, Msg: &wire.Ping{Nonce: 7}})) // parked, dropped at Close
	f.Add(frame(wire.Envelope{Src: fuzzPeer, ReqID: 1, Resp: true, Msg: &wire.Pong{Nonce: 7}}))       // the pending Call's answer
	f.Add(frame(wire.Envelope{Src: fuzzPeer, Session: fuzzSess, Msg: &probeMsg{N: 1}}))               // a push to the session
	f.Add(frame(wire.Envelope{Src: fuzzPeer, Session: fuzzSess + 1, Msg: &probeMsg{N: 2}}))           // a push to no session
	f.Add(ping[:2])                                                                                   // a truncated header
	f.Fuzz(func(t *testing.T, p []byte) {
		fuzzDispatch(t, p, false)
		fuzzDispatch(t, p, true)
	})
}

var (
	fuzzPeer = wire.ServerAddr(0, 1) // never attached: frames to it are dropped
	fuzzCli  = wire.ClientAddr(0, 1)
	fuzzSess = wire.MakeSession(1, 1)
)

// fuzzDispatch dispatches p on a fresh Local network to one of two nodes.
// The server is gated, its gate's one token held and each tenant allowed
// one parked request, with tenant 0's slot taken: a client request of
// tenant 0 takes the shed path, any other parks until Close drops it. Its
// handler answers every awaited request. The mux has no handler of its
// own, one session with that same handler, and one Call pending as request
// id 1.
func fuzzDispatch(t *testing.T, p []byte, mux bool) {
	l := NewLocal(LatencyModel{})
	l.SetAdmission(1)
	var handled atomic.Int32
	answer := HandlerFunc(func(n Node, src wire.From, reqID uint64, _ wire.Message) {
		handled.Add(1)
		if reqID != 0 {
			n.Respond(src, reqID, &wire.Pong{})
		}
	})
	called := make(chan struct{})
	var n *localNode
	var err error
	if !mux {
		close(called)
		if n, err = l.attach(wire.ServerAddr(0, 0), answer); err != nil {
			t.Fatal(err)
		}
		n.gate.park = 1
		if n.gate.Submit(0, nil, nil) != AdmitGranted || n.gate.Submit(0, nil, nil) != AdmitQueued {
			t.Fatal("the gate refused its token or its park slot")
		}
	} else {
		if n, err = l.attach(fuzzCli, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Session(fuzzSess, answer); err != nil {
			t.Fatal(err)
		}
		go func() {
			n.Call(context.Background(), fuzzPeer, &wire.Ping{})
			close(called)
		}()
		for l.stats.Dropped.Load() == 0 { // the Call's request, lost on the way
			runtime.Gosched()
		}
		if _, ok := n.pending.Load(uint64(1)); !ok {
			t.Fatal("the pending Call does not hold request id 1")
		}
	}
	drop0 := l.stats.Dropped.Load()

	fb := wire.GetFrameLen(len(p))
	copy(fb.B, p)
	n.dispatch(fb)

	closed := make(chan struct{})
	go func() {
		l.Close()
		n.wg.Wait()
		<-called
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5 s")
	}
	if runs := handled.Load(); runs > 0 {
		env, err := wire.DecodeEnvelope(p)
		if runs > 1 || err != nil || env.Resp {
			t.Fatalf("mux=%v: %d handler runs for a frame that decodes as %+v, %v", mux, runs, env, err)
		}
	}
	if d := l.stats.Dropped.Load() - drop0; d > 2 {
		t.Fatalf("mux=%v: one frame grew Dropped by %d, want at most 2", mux, d)
	}
}
