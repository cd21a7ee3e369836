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
	p := NewPartition("fam", 0, 1, nil, nil)
	open, err := p.Attach(net, wire.ServerAddr(0, 0), func(src wire.From, reqID uint64, _ wire.Message) (Op, bool) {
		handled.Add(1)
		_ = p.Node.Respond(src, reqID, &wire.Pong{})
		return Op{}, true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Node.Close()
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
		_, err := cli.Call(ctx, wire.ServerAddr(0, 0), &wire.GSSBcast{})
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

// TestPartitionHandle: Ping is answered by the skeleton, what the family
// does not know is refused (requests) or dropped (one-way messages), and
// every op the dispatch reports moves exactly its own histogram and leaves
// one slow-op trace with the phases it reported; an op reported as NoOp
// leaves nothing.
func TestPartitionHandle(t *testing.T) {
	hists := func(p *Partition) [4]uint64 {
		return [4]uint64{p.ops.Put.Count(), p.ops.Get.Count(), p.ops.ROT.Count(), p.ops.Rep.Count()}
	}
	commit := time.Now().Add(time.Hour) // marks "queue = time until the commit"
	for _, tc := range []struct {
		name  string
		reqID uint64
		m     wire.Message // *wire.Ping, or what the dispatch sees
		op    Op           // what the dispatch reports; ok=false for a GSSBcast
		reply string       // the response, "" for none
		hist  int          // index into hists that moves, -1 for none
		slow  string       // the traced op, "" for none
	}{
		{"ping", 1, &wire.Ping{Nonce: 6}, Op{}, "Pong", -1, ""},
		{"unknown request", 2, &wire.GSSBcast{}, Op{}, "ErrorResp 400", -1, ""},
		{"unknown one-way", 0, &wire.GSSBcast{}, Op{}, "", -1, ""},
		{"no op", 3, &wire.LoPutReq{}, Op{}, "", -1, ""},
		{"put", 4, &wire.LoPutReq{}, Op{Kind: OpPut, Key: "k", Fsync: 3 * time.Millisecond}, "", 0, "put"},
		{"one-key read", 5, &wire.LoPutReq{}, Read([]string{"k"}), "", 1, "get"},
		{"two-key read", 6, &wire.LoPutReq{}, Op{Kind: OpRead, Key: "k", Keys: 2, Queue: 2 * time.Millisecond}, "", 2, "rot"},
		{"keyless read", 7, &wire.LoPutReq{}, Read(nil), "", 2, "rot"},
		{"replicated update", 8, &wire.LoPutReq{}, Op{Kind: OpRep, Key: "k", Commit: commit, Fsync: time.Millisecond}, "", 3, "rep"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := newFakeNode(nil)
			slow := metrics.NewSlowRing(16, 0)
			p := NewPartition("fam", 0, 1, slow, nil)
			open, err := p.Attach(fakeNet{node}, wire.ServerAddr(0, 0), func(wire.From, uint64, wire.Message) (Op, bool) {
				_, known := tc.m.(*wire.LoPutReq)
				return tc.op, known
			})
			if err != nil {
				t.Fatal(err)
			}
			open()
			p.Handle(nil, wire.From{}, tc.reqID, tc.m)

			select {
			case m := <-node.responds:
				if got := msgName(m); got != tc.reply {
					t.Fatalf("answered %s, want %q", got, tc.reply)
				}
				if e, ok := m.(*wire.ErrorResp); ok && e.Text != "fam: unexpected message" {
					t.Fatalf("error text %q", e.Text)
				}
			default:
				if tc.reply != "" {
					t.Fatalf("no answer, want %s", tc.reply)
				}
			}
			var want [4]uint64
			if tc.hist >= 0 {
				want[tc.hist] = 1
			}
			if got := hists(p); got != want {
				t.Fatalf("put/get/rot/rep histograms moved by %v, want %v", got, want)
			}
			ops := slow.Snapshot()
			if tc.slow == "" {
				if len(ops) != 0 {
					t.Fatalf("traced %+v, want nothing", ops)
				}
				return
			}
			var key uint64 // a keyless op hashes to zero
			if tc.op.Key != "" {
				key = metrics.KeyHash(tc.op.Key)
			}
			if len(ops) != 1 || ops[0].Op != tc.slow || ops[0].KeyHash != key || ops[0].Fsync != tc.op.Fsync {
				t.Fatalf("traced %+v, want one %s of %q with fsync %v", ops, tc.slow, tc.op.Key, tc.op.Fsync)
			}
			if wantQ := tc.op.Queue; tc.op.Commit.IsZero() && ops[0].Queue != wantQ {
				t.Fatalf("traced queue %v, want the reported %v", ops[0].Queue, wantQ)
			}
			if !tc.op.Commit.IsZero() && (ops[0].Queue < 59*time.Minute || ops[0].Queue > time.Hour) {
				t.Fatalf("traced queue %v, want the hour until the reported commit", ops[0].Queue)
			}
		})
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
	b.Init(node, 2, 3, nil)
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
