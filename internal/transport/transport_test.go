package transport

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// freeAddr reserves an ephemeral localhost port for a test topology. The
// probe listener is closed immediately; the tiny reuse window beats
// flaking on hard-coded ports already held by another process.
func freeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// echoHandler answers Ping with Pong and counts one-way messages.
type echoHandler struct{ oneways atomic.Uint64 }

func (e *echoHandler) Handle(n Node, src wire.From, reqID uint64, m wire.Message) {
	if reqID == 0 {
		e.oneways.Add(1)
		return
	}
	switch msg := m.(type) {
	case *wire.Ping:
		n.Respond(src, reqID, &wire.Pong{Nonce: msg.Nonce})
	default:
		RespondError(n, src, reqID, 1, "unexpected type")
	}
}

func testNetworkBasics(t *testing.T, mk func(t *testing.T) (Network, func())) {
	t.Helper()
	net, done := mk(t)
	defer done()

	srvAddr := wire.ServerAddr(0, 0)
	cliAddr := wire.ClientAddr(0, 1)
	h := &echoHandler{}
	if _, err := net.Attach(srvAddr, h); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach(cliAddr, HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	resp, err := cli.Call(ctx, srvAddr, &wire.Ping{Nonce: 42})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if pong, ok := resp.(*wire.Pong); !ok || pong.Nonce != 42 {
		t.Fatalf("resp = %+v", resp)
	}

	// Error responses surface as errors.
	if _, err := cli.Call(ctx, srvAddr, &wire.Pong{}); err == nil {
		t.Fatal("expected error response")
	}

	// One-way send.
	if err := cli.Send(srvAddr, &wire.Ping{Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.oneways.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.oneways.Load() != 1 {
		t.Fatalf("one-way not delivered")
	}

	// Concurrent calls keep request/response correlation straight.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cli.Call(ctx, srvAddr, &wire.Ping{Nonce: uint64(i)})
			if err != nil {
				errs <- err
				return
			}
			if resp.(*wire.Pong).Nonce != uint64(i) {
				errs <- fmt.Errorf("nonce mismatch: want %d got %d", i, resp.(*wire.Pong).Nonce)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestLocalBasics(t *testing.T) {
	testNetworkBasics(t, func(t *testing.T) (Network, func()) {
		n := NewLocal(LatencyModel{})
		return n, func() { n.Close() }
	})
}

func TestTCPBasics(t *testing.T) {
	testNetworkBasics(t, func(t *testing.T) (Network, func()) {
		dir := map[wire.Addr]string{wire.ServerAddr(0, 0): freeAddr(t)}
		n := NewTCP(dir)
		return n, func() { n.Close() }
	})
}

func TestLocalLatencyInjection(t *testing.T) {
	net := NewLocal(LatencyModel{IntraDC: 5 * time.Millisecond})
	defer net.Close()
	srv := wire.ServerAddr(0, 0)
	h := &echoHandler{}
	if _, err := net.Attach(srv, h); err != nil {
		t.Fatal(err)
	}
	cli, _ := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	ctx := context.Background()
	start := time.Now()
	if _, err := cli.Call(ctx, srv, &wire.Ping{}); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 10*time.Millisecond {
		t.Fatalf("round trip %v, want ≥ 2×5ms", rtt)
	}
}

func TestLocalInterDCLatency(t *testing.T) {
	m := LatencyModel{IntraDC: time.Millisecond, InterDC: 10 * time.Millisecond}
	same := m.Delay(wire.ServerAddr(0, 0), wire.ServerAddr(0, 1))
	cross := m.Delay(wire.ServerAddr(0, 0), wire.ServerAddr(1, 0))
	if same != time.Millisecond || cross != 10*time.Millisecond {
		t.Fatalf("delays: same=%v cross=%v", same, cross)
	}
}

// TestLocalFlightsSpreadOverWheels: consecutive flights to one address take
// different delivery wheels. A DC's client mux is one address carrying every
// session's responses; pinned to one wheel, they all queued behind each
// other. The wheels here are not running, so each flight stays in the
// channel it was handed to.
func TestLocalFlightsSpreadOverWheels(t *testing.T) {
	l := &Local{latency: LatencyModel{IntraDC: time.Hour}}
	for i := 0; i < numWheels; i++ {
		l.wheels = append(l.wheels, &wheel{net: l, ch: make(chan delivery, 8), stop: make(chan struct{})})
	}
	sink := &localSink{l: l, src: wire.ServerAddr(0, 0), dst: wire.ClientAddr(0, 1)}
	for i := 0; i < 8; i++ {
		if err := sink.WriteBatch([]*wire.FrameBuf{wire.GetFrame()}); err != nil {
			t.Fatal(err)
		}
	}
	used := 0
	for _, w := range l.wheels {
		if len(w.ch) > 0 {
			used++
		}
		for len(w.ch) > 0 {
			for _, f := range (<-w.ch).bufs {
				wire.PutFrame(f)
			}
		}
	}
	if used < 2 {
		t.Fatalf("8 flights to one address used %d wheel(s), want more than one", used)
	}
}

// TestLocalCloseDropsInFlight: a flight still waiting on its wheel when the
// network closes is counted as dropped (and its frame recycled), like a
// frame any other close path discards.
func TestLocalCloseDropsInFlight(t *testing.T) {
	net := NewLocal(LatencyModel{InterDC: time.Second})
	srv := wire.ServerAddr(1, 0)
	if _, err := net.Attach(srv, &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach(wire.ServerAddr(0, 0), &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(srv, &wire.Ping{}); err != nil {
		t.Fatal(err)
	}
	// The flight is on a wheel once its batch is flushed.
	for deadline := time.Now().Add(5 * time.Second); net.Stats().Flushes.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the flight never left its link")
		}
		time.Sleep(time.Millisecond)
	}
	net.Close()
	if got := net.Stats().Dropped.Load(); got != 1 {
		t.Fatalf("Dropped = %d after Close with one flight in the air, want 1", got)
	}
}

func TestCallTimeout(t *testing.T) {
	net := NewLocal(LatencyModel{})
	defer net.Close()
	// Server that never responds.
	srv := wire.ServerAddr(0, 0)
	net.Attach(srv, HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	cli, _ := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cli.Call(ctx, srv, &wire.Ping{}); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestLocalCloseAbortsInFlightCall is the regression test for Local.Close
// stranding Calls: dispatch drops in-flight messages at close, so a Call
// holding a background context used to wait forever for a response that
// could never arrive.
func TestLocalCloseAbortsInFlightCall(t *testing.T) {
	net := NewLocal(LatencyModel{})
	srv := wire.ServerAddr(0, 0)
	// Server that never responds, so the Call is parked when Close runs.
	net.Attach(srv, HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	cli, _ := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))

	callErr := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), srv, &wire.Ping{Nonce: 1})
		callErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the server

	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-callErr:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung across Local.Close")
	}
}

// TestLocalNodeCloseAbortsInFlightCall mirrors the network-level test for
// an individual node Close.
func TestLocalNodeCloseAbortsInFlightCall(t *testing.T) {
	net := NewLocal(LatencyModel{})
	defer net.Close()
	srv := wire.ServerAddr(0, 0)
	net.Attach(srv, HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	cli, _ := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))

	callErr := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), srv, &wire.Ping{Nonce: 1})
		callErr <- err
	}()
	time.Sleep(20 * time.Millisecond)

	cli.Close()
	select {
	case err := <-callErr:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung across node Close")
	}
}

func TestCallToMissingNodeTimesOut(t *testing.T) {
	net := NewLocal(LatencyModel{})
	defer net.Close()
	cli, _ := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cli.Call(ctx, wire.ServerAddr(0, 9), &wire.Ping{}); err == nil {
		t.Fatal("expected timeout to unknown destination")
	}
	if net.Stats().View().Dropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestDuplicateAttach(t *testing.T) {
	net := NewLocal(LatencyModel{})
	defer net.Close()
	a := wire.ServerAddr(0, 0)
	if _, err := net.Attach(a, &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach(a, &echoHandler{}); err != ErrAttached {
		t.Fatalf("err = %v, want ErrAttached", err)
	}
}

func TestStatsCounting(t *testing.T) {
	net := NewLocal(LatencyModel{})
	defer net.Close()
	srv := wire.ServerAddr(0, 0)
	net.Attach(srv, &echoHandler{})
	cli, _ := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	cli.Call(context.Background(), srv, &wire.Ping{})
	v := net.Stats().View()
	if v.MsgsSent != 2 || v.BytesSent == 0 {
		t.Fatalf("stats = msgs %d bytes %d, want 2 msgs", v.MsgsSent, v.BytesSent)
	}
}

// TestStatsSentByType: both carriers split sent frames and bytes by
// message type where they count the totals, and the registry exports the
// split as kv_transport_sent_{msgs,bytes}_total{type=...}.
func TestStatsSentByType(t *testing.T) {
	type counted interface {
		Network
		Stats() *Stats
	}
	for name, mk := range map[string]func() counted{
		"local": func() counted { return NewLocal(LatencyModel{}) },
		"tcp":   func() counted { return NewTCP(map[wire.Addr]string{wire.ServerAddr(0, 0): freeAddr(t)}) },
	} {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			srv := wire.ServerAddr(0, 0)
			if _, err := net.Attach(srv, &echoHandler{}); err != nil {
				t.Fatal(err)
			}
			cli, err := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for i := 0; i < 2; i++ {
				if _, err := cli.Call(ctx, srv, &wire.Ping{Nonce: uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := cli.Send(srv, &wire.Ping{}); err != nil {
				t.Fatal(err)
			}
			st := net.Stats()
			if p, q := st.Sent[wire.TPing].Msgs.Load(), st.Sent[wire.TPong].Msgs.Load(); p != 3 || q != 2 {
				t.Fatalf("sent %d Pings and %d Pongs, want 3 and 2", p, q)
			}
			var msgs, bytes uint64
			for i := range st.Sent {
				msgs += st.Sent[i].Msgs.Load()
				bytes += st.Sent[i].Bytes.Load()
			}
			if msgs != st.MsgsSent.Load() || bytes != st.BytesSent.Load() {
				t.Fatalf("by type: %d msgs, %d B; totals: %d msgs, %d B", msgs, bytes, st.MsgsSent.Load(), st.BytesSent.Load())
			}
			reg := metrics.NewRegistry()
			st.Register(reg)
			var out strings.Builder
			if err := reg.WritePrometheus(&out); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				`kv_transport_sent_msgs_total{type="Ping"} 3`,
				`kv_transport_sent_msgs_total{type="Pong"} 2`,
				fmt.Sprintf(`kv_transport_sent_bytes_total{type="Pong"} %d`, st.Sent[wire.TPong].Bytes.Load()),
				`kv_transport_sent_msgs_total{type="RotVals"} 0`,
			} {
				if !strings.Contains(out.String(), want+"\n") {
					t.Errorf("exposition lacks %q", want)
				}
			}
		})
	}
}

// TestSharedLinkKeepsEachSendersSrc: frames carry no destination, and on
// Local the nodes of one DC share one link (one batcher, one flight) to a
// destination. Two senders of one DC firing into one node interleave on
// that link; the node's handler must still see each frame's own sender,
// and each sender's Calls must be answered to it. Run on both carriers.
func TestSharedLinkKeepsEachSendersSrc(t *testing.T) {
	srv := wire.ServerAddr(0, 0)
	senders := []wire.Addr{wire.ServerAddr(0, 1), wire.ClientAddr(0, 7)}
	for name, mk := range map[string]func() Network{
		"local": func() Network { return NewLocal(LatencyModel{IntraDC: 200 * time.Microsecond}) },
		"tcp":   func() Network { return NewTCP(map[wire.Addr]string{srv: freeAddr(t)}) },
	} {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			const each = 50
			var mu sync.Mutex
			got := make(map[wire.Addr][]uint64) // src → nonces of its one-ways
			h := HandlerFunc(func(n Node, src wire.From, reqID uint64, m wire.Message) {
				if reqID != 0 {
					n.Respond(src, reqID, &wire.Pong{Nonce: uint64(src.Addr)})
					return
				}
				mu.Lock()
				got[src.Addr] = append(got[src.Addr], m.(*wire.Ping).Nonce)
				mu.Unlock()
			})
			if _, err := net.Attach(srv, h); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			errs := make(chan error, len(senders))
			for _, a := range senders {
				n, err := net.Attach(a, HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if err := n.Send(srv, &wire.Ping{Nonce: uint64(a)}); err != nil {
							errs <- err
							return
						}
						resp, err := n.Call(ctx, srv, &wire.Ping{})
						if err != nil {
							errs <- err
							return
						}
						if p := resp.(*wire.Pong); wire.Addr(p.Nonce) != a {
							errs <- fmt.Errorf("%v's call was answered as %v's", a, wire.Addr(p.Nonce))
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if l, ok := net.(*Local); ok {
				links := 0
				l.links.Range(func(k, _ any) bool {
					if k.(uint64) == uint64(srv) {
						links++
					}
					return true
				})
				if links != 1 {
					t.Fatalf("%d links from dc0 to %v, want the one both senders share", links, srv)
				}
			}
			deadline := time.Now().Add(2 * time.Second)
			for {
				mu.Lock()
				n := len(got[senders[0]]) + len(got[senders[1]])
				mu.Unlock()
				if n == 2*each || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(got) != len(senders) {
				t.Fatalf("one-ways arrived from %d sources, want %d: %v", len(got), len(senders), got)
			}
			for _, a := range senders {
				if len(got[a]) != each {
					t.Fatalf("%v: %d of %d one-ways arrived", a, len(got[a]), each)
				}
				for _, nonce := range got[a] {
					if wire.Addr(nonce) != a {
						t.Fatalf("%v's one-way arrived as from %v", wire.Addr(nonce), a)
					}
				}
			}
		})
	}
}

// parkHandler parks every Ping request until a one-way Pong releases them,
// modelling handlers that block on cluster state (a COPS dep check waiting
// for replication).
type parkHandler struct {
	release chan struct{}
	once    sync.Once
	parked  atomic.Int64
}

func (p *parkHandler) Handle(n Node, src wire.From, reqID uint64, m wire.Message) {
	switch m.(type) {
	case *wire.Ping:
		p.parked.Add(1)
		<-p.release
		n.Respond(src, reqID, &wire.Pong{})
	case *wire.Pong:
		p.free()
	}
}

// free releases the parked handlers; the test also calls it on its way
// out, so a failed release cannot leave Close waiting on them.
func (p *parkHandler) free() { p.once.Do(func() { close(p.release) }) }

// TestParkedHandlersDoNotBlockRelease: with 64 handlers parked on a plain
// node, the one-way message that releases them still runs, on both
// carriers. A carrier that ran requests on a bounded pool, or queued them
// behind running handlers, would deadlock here — the reason every request
// gets its own goroutine until no handler parks on cluster state.
func TestParkedHandlersDoNotBlockRelease(t *testing.T) {
	const parked = 64
	srv := wire.ServerAddr(0, 0)
	for name, mk := range map[string]func() Network{
		"local": func() Network { return NewLocal(LatencyModel{}) },
		"tcp":   func() Network { return NewTCP(map[wire.Addr]string{srv: freeAddr(t)}) },
	} {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			h := &parkHandler{release: make(chan struct{})}
			defer h.free()
			if _, err := net.Attach(srv, h); err != nil {
				t.Fatal(err)
			}
			cli, err := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			callErrs := make(chan error, parked)
			for i := 0; i < parked; i++ {
				go func() {
					_, err := cli.Call(ctx, srv, &wire.Ping{Nonce: 1})
					callErrs <- err
				}()
			}
			waitUntil(t, "every handler parked", func() bool { return h.parked.Load() == parked })

			if err := cli.Send(srv, &wire.Pong{}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < parked; i++ {
				if err := <-callErrs; err != nil {
					t.Fatalf("parked call %d failed: %v; the release never ran", i, err)
				}
			}
		})
	}
}

func TestClosedNodeSendFails(t *testing.T) {
	net := NewLocal(LatencyModel{})
	defer net.Close()
	cli, _ := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	cli.Close()
	if err := cli.Send(wire.ServerAddr(0, 0), &wire.Ping{}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPServerToServer(t *testing.T) {
	dir := map[wire.Addr]string{
		wire.ServerAddr(0, 0): freeAddr(t),
		wire.ServerAddr(0, 1): freeAddr(t),
	}
	net := NewTCP(dir)
	defer net.Close()
	h0, h1 := &echoHandler{}, &echoHandler{}
	n0, err := net.Attach(wire.ServerAddr(0, 0), h0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach(wire.ServerAddr(0, 1), h1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := n0.Call(ctx, wire.ServerAddr(0, 1), &wire.Ping{Nonce: 7})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*wire.Pong).Nonce != 7 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestTCPNoRoute(t *testing.T) {
	net := NewTCP(nil)
	defer net.Close()
	cli, _ := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	if err := cli.Send(wire.ServerAddr(0, 0), &wire.Ping{}); err == nil {
		t.Fatal("expected no-route error")
	}
}

func BenchmarkLocalCallWithLatency(b *testing.B) {
	// Round trip through the spin-accurate delivery wheels at 100µs/hop;
	// expect ≈200µs+processing per op.
	net := NewLocal(LatencyModel{IntraDC: 100 * time.Microsecond})
	defer net.Close()
	srv := wire.ServerAddr(0, 0)
	net.Attach(srv, &echoHandler{})
	cli, _ := net.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call(ctx, srv, &wire.Ping{Nonce: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
