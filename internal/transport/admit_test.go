package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// probeMsg is a pooled test-only message type whose Reset counts into a
// package atomic, so tests can observe that a transport actually recycled
// a response nobody claimed (the late-response regression).
const probeType = 200

var probeResets atomic.Uint64

type probeMsg struct{ N uint64 }

func (*probeMsg) Type() uint16            { return probeType }
func (m *probeMsg) Encode(b *wire.Buffer) { b.U64(m.N) }
func (m *probeMsg) Decode(r *wire.Reader) { m.N = r.U64() }
func (m *probeMsg) Reset()                { m.N = 0; probeResets.Add(1) }

func init() {
	wire.Register(probeType, func() wire.Message { return new(probeMsg) })
	wire.Pool(probeType)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNewAdmitGateDisabled(t *testing.T) {
	if g := NewAdmitGate(AdmitConfig{}, nil); g != nil {
		t.Fatalf("Limit 0 must disable the gate, got %v", g)
	}
}

func TestAdmitGateTokens(t *testing.T) {
	var stats AdmitStats
	g := NewAdmitGate(AdmitConfig{Limit: 2, ParkPerTenant: 1}, &stats)
	if g == nil {
		t.Fatal("enabled config returned nil gate")
	}
	noop := func() {}
	if g.Submit(1, noop, noop) != AdmitGranted || g.Submit(1, noop, noop) != AdmitGranted {
		t.Fatal("gate refused requests within the limit")
	}
	// Tokens exhausted: the next request parks, the one after (queue full)
	// is shed and counted against its tenant.
	ran := make(chan struct{})
	if got := g.Submit(1, func() { close(ran); g.Release() }, noop); got != AdmitQueued {
		t.Fatalf("third submit = %v, want AdmitQueued", got)
	}
	if got := g.Submit(1, noop, noop); got != AdmitShed {
		t.Fatalf("fourth submit = %v, want AdmitShed (park queue full)", got)
	}
	v := stats.View()
	if v.Admitted != 2 || v.Shed != 1 || v.Depth != 2 || v.DepthPeak != 2 || v.Parked != 1 {
		t.Fatalf("stats = %+v, want admitted=2 shed=1 depth=2 peak=2 parked=1", v)
	}
	if got := stats.TenantShed(1); got != 1 {
		t.Fatalf("TenantShed(1) = %d, want 1", got)
	}
	// Releasing a token hands it to the parked waiter, not the free pool.
	g.Release()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter did not run after Release")
	}
	g.Release()
	waitUntil(t, "depth to drain", func() bool { return stats.Depth.Load() == 0 })
	if g.RetryAfter() != DefaultRetryAfter {
		t.Fatalf("RetryAfter = %v, want default %v", g.RetryAfter(), DefaultRetryAfter)
	}
}

// TestAdmitGateTenantRoundRobin parks waiters of a hot tenant and a
// trickle tenant while every token is held, then releases tokens one at a
// time: grants must alternate between the tenants (deficit round-robin
// with unit quantum), not drain the hot tenant's queue first.
func TestAdmitGateTenantRoundRobin(t *testing.T) {
	var stats AdmitStats
	g := NewAdmitGate(AdmitConfig{Limit: 1, ParkPerTenant: 8}, &stats)
	noop := func() {}
	if g.Submit(1, noop, noop) != AdmitGranted {
		t.Fatal("first submit not granted")
	}
	order := make(chan uint16, 8)
	park := func(tenant uint16) {
		if g.Submit(tenant, func() { order <- tenant; g.Release() }, noop) != AdmitQueued {
			t.Fatalf("tenant %d did not park", tenant)
		}
	}
	// Hot tenant parks 3 requests before the trickle tenant parks 1.
	park(1)
	park(1)
	park(1)
	park(2)
	g.Release() // cascade: each parked run releases, granting the next
	var got []uint16
	for i := 0; i < 4; i++ {
		select {
		case tn := <-order:
			got = append(got, tn)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 4 parked waiters ran: %v", i, got)
		}
	}
	// Round-robin: 1, 2, 1, 1 — the trickle tenant is served second, not
	// last.
	want := []uint16{1, 2, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
	waitUntil(t, "depth to drain", func() bool { return stats.Depth.Load() == 0 })
}

// TestAdmitGateCloseDrainsParked verifies Close fires every parked
// waiter's drop closure so shutdown accounting is released.
func TestAdmitGateCloseDrainsParked(t *testing.T) {
	var stats AdmitStats
	g := NewAdmitGate(AdmitConfig{Limit: 1, ParkPerTenant: 4}, &stats)
	noop := func() {}
	if g.Submit(1, noop, noop) != AdmitGranted {
		t.Fatal("first submit not granted")
	}
	var dropped atomic.Int64
	for i := 0; i < 3; i++ {
		if g.Submit(uint16(i%2), func() { t.Error("parked run fired across Close") }, func() { dropped.Add(1) }) != AdmitQueued {
			t.Fatalf("submit %d did not park", i)
		}
	}
	g.Close()
	if dropped.Load() != 3 {
		t.Fatalf("dropped %d parked waiters, want 3", dropped.Load())
	}
	if got := g.Submit(1, noop, noop); got != AdmitShed {
		t.Fatalf("submit after Close = %v, want AdmitShed", got)
	}
	if p := stats.Parked.Load(); p != 0 {
		t.Fatalf("parked gauge after Close = %d, want 0", p)
	}
}

// TestAdmitGateOverloadHysteresis drives the queue-depth detector through
// trip, hold, and clear: it must trip at the threshold, KEEP shedding while
// the signal sits between half and full threshold, and clear only at or
// below half. lastProbe is reset before each evaluation to defeat the
// probe rate limit deterministically.
func TestAdmitGateOverloadHysteresis(t *testing.T) {
	var depth atomic.Int64
	var stats AdmitStats
	g := NewAdmitGate(AdmitConfig{Limit: 4, ShedQueueFrames: 100, QueueDepth: depth.Load}, &stats)
	probe := func() bool {
		g.lastProbe.Store(0)
		return g.overloadedNow()
	}
	if probe() {
		t.Fatal("detector tripped with an empty queue")
	}
	depth.Store(100)
	if !probe() {
		t.Fatal("detector did not trip at the threshold")
	}
	if stats.Overloaded.Load() != 1 {
		t.Fatalf("overloaded gauge = %d, want 1", stats.Overloaded.Load())
	}
	g.lastProbe.Store(0)
	if g.Submit(0, func() {}, func() {}) != AdmitShed {
		t.Fatal("gate admitted while the detector is tripped, despite free tokens")
	}
	if stats.Shed.Load() == 0 {
		t.Fatal("overload shed not counted")
	}
	depth.Store(60) // below trip, above half: hysteresis must hold
	if !probe() {
		t.Fatal("detector cleared above half the threshold (flapping)")
	}
	depth.Store(50) // at half: clears
	if probe() {
		t.Fatal("detector did not clear at half the threshold")
	}
	if stats.Overloaded.Load() != 0 {
		t.Fatalf("overloaded gauge = %d after clear, want 0", stats.Overloaded.Load())
	}
	g.lastProbe.Store(0)
	if g.Submit(0, func() {}, func() {}) != AdmitGranted {
		t.Fatal("gate still shedding after the detector cleared")
	}
	g.Release()
}

func TestAdmitGateFsyncSignal(t *testing.T) {
	var p99 atomic.Int64
	var stats AdmitStats
	g := NewAdmitGate(AdmitConfig{
		Limit:        4,
		ShedFsyncP99: 10 * time.Millisecond,
		FsyncP99:     func() time.Duration { return time.Duration(p99.Load()) },
	}, &stats)
	probe := func() bool {
		g.lastProbe.Store(0)
		return g.overloadedNow()
	}
	if probe() {
		t.Fatal("detector tripped with zero fsync delay")
	}
	p99.Store(int64(10 * time.Millisecond))
	if !probe() {
		t.Fatal("detector did not trip at the fsync threshold")
	}
	p99.Store(int64(4 * time.Millisecond))
	if probe() {
		t.Fatal("detector did not clear below half the fsync threshold")
	}
}

func TestBusyBackoffBounds(t *testing.T) {
	hint := 100 * time.Microsecond
	for attempt := 0; attempt < 12; attempt++ {
		want := hint
		for i := 0; i < attempt && want < maxBusyBackoff; i++ {
			want *= 2
		}
		if want > maxBusyBackoff {
			want = maxBusyBackoff
		}
		for i := 0; i < 32; i++ {
			got := BusyBackoff(attempt, hint)
			if got < want/2 || got > want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, got, want/2, want)
			}
		}
	}
	// A zero hint falls back to the default.
	if got := BusyBackoff(0, 0); got < DefaultRetryAfter/2 || got > DefaultRetryAfter {
		t.Fatalf("zero-hint backoff %v outside [%v, %v]", got, DefaultRetryAfter/2, DefaultRetryAfter)
	}
}

// busyHandler responds Busy to the first busyN requests, then serves
// normally.
type busyHandler struct {
	busyN int64
	calls atomic.Int64
}

func (h *busyHandler) Handle(n Node, src wire.From, reqID uint64, m wire.Message) {
	if reqID == 0 {
		return
	}
	if h.calls.Add(1) <= h.busyN {
		n.Respond(src, reqID, &wire.Busy{RetryAfterMicros: 50})
		return
	}
	if p, ok := m.(*wire.Ping); ok {
		n.Respond(src, reqID, &wire.Pong{Nonce: p.Nonce})
	}
}

func TestCallRetryExhaustsToErrOverloaded(t *testing.T) {
	net := NewLocal(LatencyModel{})
	defer net.Close()
	srv := wire.ServerAddr(0, 0)
	if _, err := net.Attach(srv, &busyHandler{busyN: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach(wire.ClientAddr(0, 1), &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var retries int
	_, err = CallRetry(ctx, cli, srv, &wire.Ping{}, func() { retries++ })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if retries != DefaultBusyRetries {
		t.Fatalf("onRetry ran %d times, want %d", retries, DefaultBusyRetries)
	}
}

func TestCallRetryRecoversAfterBusy(t *testing.T) {
	net := NewLocal(LatencyModel{})
	defer net.Close()
	srv := wire.ServerAddr(0, 0)
	if _, err := net.Attach(srv, &busyHandler{busyN: 3}); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach(wire.ClientAddr(0, 1), &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var retries int
	resp, err := CallRetry(ctx, cli, srv, &wire.Ping{Nonce: 9}, func() { retries++ })
	if err != nil {
		t.Fatal(err)
	}
	if pong, ok := resp.(*wire.Pong); !ok || pong.Nonce != 9 {
		t.Fatalf("resp = %#v, want Pong{9}", resp)
	}
	if retries != 3 {
		t.Fatalf("onRetry ran %d times, want 3", retries)
	}
}

// gatedParkHandler parks client-sourced Pings until release closes;
// server-sourced Pings are answered immediately. It models client handlers
// occupying every admission token while cluster traffic must stay live.
type gatedParkHandler struct {
	release chan struct{}
	parked  atomic.Int64
}

func (p *gatedParkHandler) Handle(n Node, src wire.From, reqID uint64, m wire.Message) {
	ping, ok := m.(*wire.Ping)
	if !ok || reqID == 0 {
		return
	}
	if src.Addr.IsClient() {
		p.parked.Add(1)
		<-p.release
	}
	n.Respond(src, reqID, &wire.Pong{Nonce: ping.Nonce})
}

// testAdmissionLiveness is the gate's liveness invariant, shared by both
// transports: with every admission token held by parked client handlers,
// (a) further client requests are shed with a typed Busy, and (b)
// cluster-sourced requests still dispatch and complete — the gate must
// never apply to them.
func testAdmissionLiveness(t *testing.T, net Network, stats *AdmitStats, done func()) {
	t.Helper()
	defer done()
	srv := wire.ServerAddr(0, 0)
	peer := wire.ServerAddr(0, 1)
	h := &gatedParkHandler{release: make(chan struct{})}
	if _, err := net.Attach(srv, h); err != nil {
		t.Fatal(err)
	}
	pn, err := net.Attach(peer, &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Two clients park inside the handler, holding both tokens.
	parked := make(chan error, 2)
	for i := 0; i < 2; i++ {
		cli, err := net.Attach(wire.ClientAddr(0, i+1), &echoHandler{})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := cli.Call(ctx, srv, &wire.Ping{Nonce: 1})
			parked <- err
		}()
	}
	waitUntil(t, "both clients parked", func() bool { return h.parked.Load() == 2 })

	// A third client parks in the gate's per-tenant queue (cap 1 here)
	// instead of running.
	c3, err := net.Attach(wire.ClientAddr(0, 3), &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := c3.Call(ctx, srv, &wire.Ping{Nonce: 2})
		queued <- err
	}()
	waitUntil(t, "third client to park in the gate", func() bool { return stats.Parked.Load() == 1 })

	// A fourth client finds the park queue full and must be shed with
	// Busy, not queued behind the parked handlers.
	c4, err := net.Attach(wire.ClientAddr(0, 4), &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c4.Call(ctx, srv, &wire.Ping{Nonce: 3})
	var busy *wire.Busy
	if !errors.As(err, &busy) {
		t.Fatalf("fourth client err = %v, want *wire.Busy", err)
	}
	if busy.RetryAfter() <= 0 {
		t.Fatalf("Busy carried no retry-after hint: %+v", busy)
	}

	// Cluster traffic must still flow while every token is held.
	resp, err := pn.Call(ctx, srv, &wire.Ping{Nonce: 7})
	if err != nil {
		t.Fatalf("server→server call under full gate: %v", err)
	}
	if pong, ok := resp.(*wire.Pong); !ok || pong.Nonce != 7 {
		t.Fatalf("server→server resp = %#v, want Pong{7}", resp)
	}

	close(h.release)
	for i := 0; i < 2; i++ {
		if err := <-parked; err != nil {
			t.Fatalf("parked client call failed after release: %v", err)
		}
	}
	// The gate-parked third client is granted a freed token and completes.
	if err := <-queued; err != nil {
		t.Fatalf("gate-parked client call failed after release: %v", err)
	}
	v := stats.View()
	if v.Admitted != 3 || v.Shed < 1 {
		t.Fatalf("stats = %+v, want admitted=3 shed>=1", v)
	}
	waitUntil(t, "admission depth to drain", func() bool { return stats.Depth.Load() == 0 })
}

func TestTCPAdmissionGateLiveness(t *testing.T) {
	dir := map[wire.Addr]string{
		wire.ServerAddr(0, 0): freeAddr(t),
		wire.ServerAddr(0, 1): freeAddr(t),
	}
	net := NewTCP(dir)
	net.SetAdmission(AdmitConfig{Limit: 2, ParkPerTenant: 1})
	testAdmissionLiveness(t, net, net.AdmitStats(), func() { net.Close() })
}

func TestLocalAdmissionGateLiveness(t *testing.T) {
	net := NewLocal(LatencyModel{})
	net.SetAdmission(AdmitConfig{Limit: 2, ParkPerTenant: 1})
	testAdmissionLiveness(t, net, net.AdmitStats(), func() { net.Close() })
}

// lateRespHandler holds the response until the test releases it, after the
// caller's ctx is already cancelled — manufacturing a response nobody
// claims.
type lateRespHandler struct {
	got     chan struct{}
	proceed chan struct{}
}

func (h *lateRespHandler) Handle(n Node, src wire.From, reqID uint64, m wire.Message) {
	if reqID == 0 {
		return
	}
	h.got <- struct{}{}
	<-h.proceed
	n.Respond(src, reqID, &probeMsg{N: 9})
}

// testLateResponse is the regression for the silent late-response leak:
// a response arriving after its Call gave up must be counted as dropped
// AND recycled back to the message pool (observed via probeMsg's counting
// Reset), on both transports.
func testLateResponse(t *testing.T, net Network, stats *Stats, done func()) {
	t.Helper()
	defer done()
	srv := wire.ServerAddr(0, 0)
	h := &lateRespHandler{got: make(chan struct{}), proceed: make(chan struct{})}
	if _, err := net.Attach(srv, h); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach(wire.ClientAddr(0, 1), &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, srv, &wire.Ping{})
		errCh <- err
	}()
	<-h.got
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	// The Call has returned, so its pending entry is gone. Release the
	// response and require both the drop accounting and the pool return.
	drop0 := stats.Dropped.Load()
	resets0 := probeResets.Load()
	close(h.proceed)
	waitUntil(t, "late response dropped with accounting", func() bool {
		return stats.Dropped.Load() > drop0
	})
	waitUntil(t, "late response recycled to the pool", func() bool {
		return probeResets.Load() > resets0
	})
}

func TestTCPLateResponseRecycledAndCounted(t *testing.T) {
	dir := map[wire.Addr]string{wire.ServerAddr(0, 0): freeAddr(t)}
	net := NewTCP(dir)
	testLateResponse(t, net, net.Stats(), func() { net.Close() })
}

func TestLocalLateResponseRecycledAndCounted(t *testing.T) {
	net := NewLocal(LatencyModel{})
	testLateResponse(t, net, net.Stats(), func() { net.Close() })
}
