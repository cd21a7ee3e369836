package family

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestAttachGatesDispatchUntilOpen: a message that arrives between the
// network's Attach and open is held, not dropped and not handled early.
func TestAttachGatesDispatchUntilOpen(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()
	var handled atomic.Int32
	node, open, err := Attach(net, wire.ServerAddr(0, 0), transport.HandlerFunc(
		func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
			handled.Add(1)
			_ = n.Respond(src, reqID, &wire.Pong{})
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	cli, err := net.Attach(wire.ClientAddr(0, 1), transport.HandlerFunc(
		func(transport.Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	answered := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := cli.Call(ctx, wire.ServerAddr(0, 0), &wire.Ping{})
		answered <- err
	}()
	select {
	case err := <-answered:
		t.Fatalf("request answered before open: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times before open", n)
	}
	open()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held request was not dispatched after open")
	}
}

// TestRepAges: before the first receipt a peer's age counts from server
// start; a receipt resets it; out-of-range DCs (SrcDC is wire input) are
// ignored; one gauge per peer is registered and none for the server's own
// DC.
func TestRepAges(t *testing.T) {
	a := NewRepAges(3)
	time.Sleep(20 * time.Millisecond)
	if age := a.Age(1); age < 20*time.Millisecond {
		t.Fatalf("age before any receipt = %s, want at least the 20 ms since start", age)
	}
	a.Note(1)
	if age := a.Age(1); age >= 20*time.Millisecond {
		t.Fatalf("age right after a receipt = %s", age)
	}
	a.Note(7)
	a.Note(-1)
	if a.Age(7) != 0 {
		t.Fatal("out-of-range DC has an age")
	}

	r := metrics.NewRegistry()
	a.Register(r, 0, metrics.Label{Name: "family", Value: "x"})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, peer := range []string{`peer_dc="1"`, `peer_dc="2"`} {
		if !strings.Contains(out, peer) {
			t.Fatalf("no gauge for %s in:\n%s", peer, out)
		}
	}
	if strings.Contains(out, `peer_dc="0"`) {
		t.Fatalf("gauge registered for the server's own DC:\n%s", out)
	}
}

// TestBaseWarmAndRetryCount: Warm pings every partition of the client's DC
// once; a Busy answer is retried by Call and counted.
func TestBaseWarmAndRetryCount(t *testing.T) {
	var shed atomic.Bool
	shed.Store(true)
	node := newFakeNode(func(_ context.Context, c call) (wire.Message, error) {
		if c.dst == wire.ServerAddr(2, 1) && shed.CompareAndSwap(true, false) {
			return nil, &wire.Busy{}
		}
		return &wire.Pong{Nonce: c.m.(*wire.Ping).Nonce}, nil
	})
	var b Base
	b.Init(node, 2, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Warm(ctx); err != nil {
		t.Fatal(err)
	}
	var dsts []wire.Addr
	for range 4 {
		dsts = append(dsts, node.nextCall(t).dst)
	}
	want := []wire.Addr{wire.ServerAddr(2, 0), wire.ServerAddr(2, 1), wire.ServerAddr(2, 1), wire.ServerAddr(2, 2)}
	for i := range want {
		if dsts[i] != want[i] {
			t.Fatalf("Warm pinged %v, want %v", dsts, want)
		}
	}
	if n := b.BusyRetries(); n != 1 {
		t.Fatalf("BusyRetries = %d after one shed ping, want 1", n)
	}
}
