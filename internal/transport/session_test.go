package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// pushEchoHandler answers Ping{Nonce} with Pong{Nonce} AND pushes a
// one-way Busy{Echo: Nonce} straight back to the calling session — the
// shape of the 1 1/2-round ROT's direct partition-to-client answer. The
// push must land on exactly the session that called; the mux correctness
// test asserts no cross-session delivery.
type pushEchoHandler struct{}

func (pushEchoHandler) Handle(n Node, src wire.From, reqID uint64, m wire.Message) {
	ping, ok := m.(*wire.Ping)
	if !ok || reqID == 0 {
		return
	}
	_ = n.SendTo(src, &wire.Busy{Echo: ping.Nonce, RetryAfterMicros: 1})
	_ = n.Respond(src, reqID, &wire.Pong{Nonce: ping.Nonce})
}

// sessionRecorder records every push a session's handler receives.
type sessionRecorder struct {
	mu     sync.Mutex
	echoes []uint64
}

func (r *sessionRecorder) Handle(_ Node, _ wire.From, _ uint64, m wire.Message) {
	if b, ok := m.(*wire.Busy); ok {
		r.mu.Lock()
		r.echoes = append(r.echoes, b.Echo)
		r.mu.Unlock()
	}
}

// testMuxInterleaving is the session-mux correctness property: many
// concurrent sessions interleaved over one shared endpoint (a single
// socket on TCP) round-trip every request byte-exactly, and direct server
// pushes reach only the session they were addressed to. Nonces are
// namespaced sessLocal<<32|seq, so any cross-session delivery or payload
// corruption is detected exactly.
func testMuxInterleaving(t *testing.T, net Network, done func()) {
	t.Helper()
	defer done()
	srv := wire.ServerAddr(0, 0)
	if _, err := net.Attach(srv, pushEchoHandler{}); err != nil {
		t.Fatal(err)
	}
	mux, err := net.AttachMux(wire.ClientAddr(0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 16
	const callsPer = 50
	recs := make([]*sessionRecorder, sessions)
	nodes := make([]Session, sessions)
	for i := 0; i < sessions; i++ {
		recs[i] = &sessionRecorder{}
		s, err := mux.Session(wire.MakeSession(uint16(i%3), uint16(i+1)), recs[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = s
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i, s := range nodes {
		wg.Add(1)
		go func(i int, s Session) {
			defer wg.Done()
			for seq := 0; seq < callsPer; seq++ {
				nonce := uint64(i+1)<<32 | uint64(seq)
				resp, err := s.Call(ctx, srv, &wire.Ping{Nonce: nonce})
				if err != nil {
					errs <- fmt.Errorf("session %d call %d: %w", i, seq, err)
					return
				}
				pong, ok := resp.(*wire.Pong)
				if !ok || pong.Nonce != nonce {
					errs <- fmt.Errorf("session %d call %d: resp %#v, want Pong{%d}", i, seq, resp, nonce)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Every push must have landed on its own session: all echoes carry the
	// session's index in the high bits, and all callsPer arrive.
	for i, rec := range recs {
		waitUntil(t, fmt.Sprintf("session %d pushes", i), func() bool {
			rec.mu.Lock()
			defer rec.mu.Unlock()
			return len(rec.echoes) >= callsPer
		})
		rec.mu.Lock()
		for _, e := range rec.echoes {
			if e>>32 != uint64(i+1) {
				t.Fatalf("session %d received push %#x addressed to session %d", i, e, e>>32-1)
			}
		}
		if len(rec.echoes) != callsPer {
			t.Fatalf("session %d received %d pushes, want %d", i, len(rec.echoes), callsPer)
		}
		rec.mu.Unlock()
	}
}

func TestTCPMuxInterleaving(t *testing.T) {
	dir := map[wire.Addr]string{wire.ServerAddr(0, 0): freeAddr(t)}
	net := NewTCP(dir)
	testMuxInterleaving(t, net, func() { net.Close() })
}

func TestLocalMuxInterleaving(t *testing.T) {
	net := NewLocal(LatencyModel{})
	testMuxInterleaving(t, net, func() { net.Close() })
}

// slowEchoHandler answers Ping after a fixed service time, giving the
// admission gate a real per-request cost to protect.
type slowEchoHandler struct{ delay time.Duration }

func (h slowEchoHandler) Handle(n Node, src wire.From, reqID uint64, m wire.Message) {
	ping, ok := m.(*wire.Ping)
	if !ok || reqID == 0 {
		return
	}
	time.Sleep(h.delay)
	_ = n.Respond(src, reqID, &wire.Pong{Nonce: ping.Nonce})
}

// testTenantFairness saturates an admit-limited server with a hot tenant
// and sends a trickle tenant through the same gate. Deficit round-robin
// parking must keep the trickle tenant live: its fixed batch of requests
// completes with a bounded p99 while the hot tenant is shedding, and
// cluster traffic is never gated (the liveness invariant).
func testTenantFairness(t *testing.T, net Network, stats *AdmitStats, done func()) {
	t.Helper()
	defer done()
	srv := wire.ServerAddr(0, 0)
	peer := wire.ServerAddr(0, 1)
	sn, err := net.Attach(srv, slowEchoHandler{delay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gateOf(sn).park = 8
	pn, err := net.Attach(peer, &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	mux, err := net.AttachMux(wire.ClientAddr(0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}

	const hotTenant, trickleTenant = 1, 2
	const hotSessions = 16
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Hot tenant: a storm of sessions in a tight closed loop. Errors are
	// expected (that is what shedding is); only the trickle tenant's
	// results are asserted.
	stop := make(chan struct{})
	var stormWG sync.WaitGroup
	for i := 0; i < hotSessions; i++ {
		s, err := mux.Session(wire.MakeSession(hotTenant, uint16(i+1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		stormWG.Add(1)
		go func(s Session) {
			defer stormWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cctx, ccancel := context.WithTimeout(ctx, 2*time.Second)
				_, _ = s.Call(cctx, srv, &wire.Ping{Nonce: 1})
				ccancel()
			}
		}(s)
	}
	// Let the storm occupy the gate before the trickle tenant arrives.
	waitUntil(t, "gate saturation", func() bool {
		return stats.Depth.Load() >= 2 || stats.Parked.Load() > 0
	})

	// Trickle tenant: a fixed batch of sequential requests with retries.
	tr, err := mux.Session(wire.MakeSession(trickleTenant, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	const trickleOps = 30
	var worst time.Duration
	for i := 0; i < trickleOps; i++ {
		start := time.Now()
		if _, err := CallRetry(ctx, tr, srv, &wire.Ping{Nonce: uint64(i)}, nil); err != nil {
			t.Fatalf("trickle op %d starved: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	// Generous CI bound: with Limit 2 and 2ms service time, a fair gate
	// serves a parked trickle request within a few queue rotations; only a
	// starved tenant pushes multi-second worst cases.
	if worst > 5*time.Second {
		t.Fatalf("trickle tenant worst latency %v under hot-tenant storm", worst)
	}

	// Liveness invariant: cluster traffic flows mid-storm, ungated.
	resp, err := pn.Call(ctx, srv, &wire.Ping{Nonce: 77})
	if err != nil {
		t.Fatalf("server→server call under tenant storm: %v", err)
	}
	if pong, ok := resp.(*wire.Pong); !ok || pong.Nonce != 77 {
		t.Fatalf("server→server resp = %#v, want Pong{77}", resp)
	}

	close(stop)
	stormWG.Wait()
	if shed := stats.TenantShed(hotTenant); shed == 0 {
		t.Fatal("hot tenant was never shed; storm did not exercise the gate")
	}
	waitUntil(t, "admission depth to drain", func() bool { return stats.Depth.Load() == 0 })
}

func TestTCPTenantFairness(t *testing.T) {
	dir := map[wire.Addr]string{
		wire.ServerAddr(0, 0): freeAddr(t),
		wire.ServerAddr(0, 1): freeAddr(t),
	}
	net := NewTCP(dir)
	net.SetAdmission(2)
	testTenantFairness(t, net, net.AdmitStats(), func() { net.Close() })
}

func TestLocalTenantFairness(t *testing.T) {
	net := NewLocal(LatencyModel{})
	net.SetAdmission(2)
	testTenantFairness(t, net, net.AdmitStats(), func() { net.Close() })
}

// testSessionTeardownRecycles extends the counting-Reset probe to session
// teardown: a pooled one-way push delivered to a live session is recycled
// after its handler returns, and one arriving after the session closed
// takes the dropped path — which must also recycle, or teardown leaks every
// in-flight pooled message of a departing session.
func testSessionTeardownRecycles(t *testing.T, net Network, stats *Stats, done func()) {
	t.Helper()
	defer done()
	srv := wire.ServerAddr(0, 0)
	var echo echoHandler
	sn, err := net.Attach(srv, &echo)
	if err != nil {
		t.Fatal(err)
	}
	mux, err := net.AttachMux(wire.ClientAddr(0, 9), 0)
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Uint64
	id := wire.MakeSession(3, 1)
	sess, err := mux.Session(id, HandlerFunc(func(_ Node, _ wire.From, _ uint64, m wire.Message) {
		if _, ok := m.(*probeMsg); ok {
			got.Add(1)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Teach the server this client's route (and socket).
	if _, err := sess.Call(ctx, srv, &wire.Ping{Nonce: 1}); err != nil {
		t.Fatal(err)
	}

	to := wire.From{Addr: wire.ClientAddr(0, 9), Sess: id}
	before := probeResets.Load()
	if err := sn.SendTo(to, &probeMsg{N: 42}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "live session to receive the probe", func() bool { return got.Load() == 1 })
	waitUntil(t, "live-session probe recycle", func() bool { return probeResets.Load() > before })

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	before = probeResets.Load()
	drops := stats.Dropped.Load()
	if err := sn.SendTo(to, &probeMsg{N: 43}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "post-teardown probe to be dropped", func() bool { return stats.Dropped.Load() > drops })
	waitUntil(t, "post-teardown probe recycle", func() bool { return probeResets.Load() > before })
	if got.Load() != 1 {
		t.Fatalf("closed session still received a push (%d deliveries)", got.Load())
	}
}

func TestTCPSessionTeardownRecycles(t *testing.T) {
	net := NewTCP(map[wire.Addr]string{wire.ServerAddr(0, 0): freeAddr(t)})
	testSessionTeardownRecycles(t, net, net.Stats(), func() { net.Close() })
}

func TestLocalSessionTeardownRecycles(t *testing.T) {
	net := NewLocal(LatencyModel{})
	testSessionTeardownRecycles(t, net, net.Stats(), func() { net.Close() })
}

// TestTCPThousandSessionsSocketBound is the connection-scale property: a
// thousand concurrent sessions against two servers share the mux's one
// socket per server — O(servers) sockets, not O(sessions) — while every
// session round-trips traffic, and teardown returns both gauges to zero.
func TestTCPThousandSessionsSocketBound(t *testing.T) {
	if testing.Short() {
		t.Skip("connection-scale test")
	}
	srvA, srvB := wire.ServerAddr(0, 0), wire.ServerAddr(0, 1)
	dir := map[wire.Addr]string{srvA: freeAddr(t), srvB: freeAddr(t)}
	net := NewTCP(dir)
	defer net.Close()
	for _, a := range []wire.Addr{srvA, srvB} {
		if _, err := net.Attach(a, &echoHandler{}); err != nil {
			t.Fatal(err)
		}
	}
	mux, err := net.AttachMux(wire.ClientAddr(0, 1), 8)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 1000
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	nodes := make([]Session, sessions)
	for i := 0; i < sessions; i++ {
		s, err := mux.Session(wire.MakeSession(uint16(i%4), uint16(i+1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = s
		wg.Add(1)
		go func(i int, s Session) {
			defer wg.Done()
			for _, dst := range []wire.Addr{srvA, srvB} {
				nonce := uint64(i)<<16 | uint64(dst)&0xFFFF
				resp, err := s.Call(ctx, dst, &wire.Ping{Nonce: nonce})
				if err != nil {
					errs <- fmt.Errorf("session %d → %v: %w", i, dst, err)
					return
				}
				if pong, ok := resp.(*wire.Pong); !ok || pong.Nonce != nonce {
					errs <- fmt.Errorf("session %d → %v: resp %#v", i, dst, resp)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	v := net.Stats().View()
	if v.Sessions != sessions {
		t.Fatalf("sessions gauge = %d, want %d", v.Sessions, sessions)
	}
	// One socket per server, and both ends live in this process (client
	// and servers share one TCP instance, hence one gauge): the mux dials
	// 2 sockets and the two servers hold their accepted ends.
	if v.OpenConnsPeak != 2*2 {
		t.Fatalf("socket peak = %d for %d sessions, want %d", v.OpenConnsPeak, sessions, 2*2)
	}
	for _, s := range nodes {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := net.Stats().Sessions.Load(); got != 0 {
		t.Fatalf("sessions gauge after teardown = %d, want 0", got)
	}
}

// TestTCPMuxOneSocketPerServer: 200 sessions of one mux calling two
// servers at once open exactly one socket per server, whatever pool the
// mux was attached with. The client is on a TCP network of its own, so its
// gauge counts only the sockets it dialed.
func TestTCPMuxOneSocketPerServer(t *testing.T) {
	srvA, srvB := wire.ServerAddr(0, 0), wire.ServerAddr(0, 1)
	dir := map[wire.Addr]string{srvA: freeAddr(t), srvB: freeAddr(t)}
	srvNet := NewTCP(dir)
	defer srvNet.Close()
	for _, a := range []wire.Addr{srvA, srvB} {
		if _, err := srvNet.Attach(a, &echoHandler{}); err != nil {
			t.Fatal(err)
		}
	}
	cliNet := NewTCP(dir)
	defer cliNet.Close()
	mux, err := cliNet.AttachMux(wire.ClientAddr(0, 1), 8)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 200
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		s, err := mux.Session(wire.MakeSession(uint16(i%4), uint16(i+1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, dst := range []wire.Addr{srvA, srvB} {
				if _, err := s.Call(ctx, dst, &wire.Ping{Nonce: uint64(i)}); err != nil {
					errs <- fmt.Errorf("session %d → %v: %w", i, dst, err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if peak := cliNet.Stats().View().OpenConnsPeak; peak != 2 {
		t.Fatalf("client socket peak = %d for %d sessions over 2 servers, want 2", peak, sessions)
	}
}
