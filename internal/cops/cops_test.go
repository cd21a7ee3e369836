package cops

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

func deploy(t *testing.T, dcs, parts int) (*transport.Local, []*Server, ring.Ring) {
	t.Helper()
	net := transport.NewLocal(transport.LatencyModel{})
	r := ring.New(parts)
	var servers []*Server
	for dc := 0; dc < dcs; dc++ {
		for p := 0; p < parts; p++ {
			s, err := NewServer(Config{DC: dc, Part: p, NumDCs: dcs, NumParts: parts}, net)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			servers = append(servers, s)
		}
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
		net.Close()
	})
	return net, servers, r
}

func client(t *testing.T, net *transport.Local, r ring.Ring, dc, id int) *Client {
	t.Helper()
	return dial(t, ClientConfig{DC: dc, ID: id, Ring: r}, net)
}

// dial opens cfg's client as a session on a client mux of its own,
// attached at the client's address.
func dial(t testing.TB, cfg ClientConfig, net transport.Network) *Client {
	t.Helper()
	mux, err := net.AttachMux(wire.ClientAddr(cfg.DC, cfg.ID), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mux.Close() })
	c, err := NewSessionClient(cfg, mux, wire.MakeSession(0, uint16(cfg.ID)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicOps(t *testing.T) {
	net, _, r := deploy(t, 1, 2)
	c := client(t, net, r, 0, 1)
	ctx := context.Background()
	if _, err := c.Put(ctx, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(ctx, "a")
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	kvs, err := c.ROT(ctx, []string{"a", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if string(kvs[0].Value) != "1" || kvs[1].Value != nil {
		t.Fatalf("ROT = %q %q", kvs[0].Value, kvs[1].Value)
	}
}

// TestContextNeverCollapses pins the COPS-GT context discipline: unlike
// CC-LO's nearest dependencies, a PUT must NOT clear the accumulated set
// (the two-round ROT cut computation depends on per-key domination of the
// transitive closure).
func TestContextNeverCollapses(t *testing.T) {
	net, _, r := deploy(t, 1, 2)
	c := client(t, net, r, 0, 1)
	w := client(t, net, r, 0, 2)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := w.Put(ctx, fmt.Sprintf("seed-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ROT(ctx, []string{"seed-0", "seed-1", "seed-2"}); err != nil {
		t.Fatal(err)
	}
	if c.DepCount() != 3 {
		t.Fatalf("deps = %d, want 3", c.DepCount())
	}
	if _, err := c.Put(ctx, "mine", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if c.DepCount() != 4 {
		t.Fatalf("deps after PUT = %d, want 4 (context must keep growing)", c.DepCount())
	}
}

// TestSecondRoundClosesTheGap reproduces §3's COPS walkthrough (Figure 1):
// the first round may return X0 and Y1 with "Y1 depends on X1"; the client
// must detect the gap from the returned dependencies and fetch X1 in a
// second round.
func TestSecondRoundClosesTheGap(t *testing.T) {
	net, servers, r := deploy(t, 1, 2)
	x := "x"
	y := ""
	for i := 0; ; i++ {
		y = fmt.Sprintf("y%d", i)
		if r.Owner(y) != r.Owner(x) {
			break
		}
	}
	ctx := context.Background()
	c2 := client(t, net, r, 0, 1)
	if _, err := c2.Put(ctx, x, []byte("X0")); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Put(ctx, x, []byte("X1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Put(ctx, y, []byte("Y1")); err != nil {
		t.Fatal(err)
	}

	// Simulate the adversarial interleaving at the protocol level: a raw
	// round-1 answer holding stale X0 next to fresh Y1 (whose deps include
	// x@tsX1) must trigger a second round.
	sx := servers[r.Owner(x)]
	vx0, ok := sx.store.at(x, 1, 0) // chain bottom: the stale X0
	if !ok {
		t.Fatal("no retained version of x")
	}
	sy := servers[r.Owner(y)]
	vy1, _ := sy.store.latest(y)
	round1 := map[string]wire.DepKV{
		x: {KV: wire.KV{Key: x, Value: vx0.value, TS: vx0.ts}, Deps: vx0.deps},
		y: {KV: wire.KV{Key: y, Value: vy1.value, TS: vy1.ts}, Deps: vy1.deps},
	}
	vx1, _ := sx.store.latest(x)
	if d, ok := causalCut(round1)[x]; !ok || d.TS != vx1.ts {
		t.Fatalf("stale X0 + fresh Y1 must cut x at X1's ts %d (cut %v, deps %v)", vx1.ts, causalCut(round1), vy1.deps)
	}

	// The full client ROT returns a consistent (and here, fresh) snapshot.
	c3 := client(t, net, r, 0, 2)
	kvs, err := c3.ROT(ctx, []string{x, y})
	if err != nil {
		t.Fatal(err)
	}
	if string(kvs[0].Value) != "X1" || string(kvs[1].Value) != "Y1" {
		t.Fatalf("ROT = %q %q, want X1 Y1", kvs[0].Value, kvs[1].Value)
	}
}

func TestStoreAtExactAndFallback(t *testing.T) {
	s := newStore(4, 1)
	for ts := uint64(1); ts <= 10; ts++ {
		s.install("k", version{value: []byte{byte(ts)}, ts: ts})
	}
	// Exact retained version.
	if v, ok := s.at("k", 9, 0); !ok || v.ts != 9 {
		t.Fatalf("at(9) = %+v ok=%v", v, ok)
	}
	// Trimmed version: next retained one above stands in.
	if v, ok := s.at("k", 3, 0); !ok || v.ts < 3 {
		t.Fatalf("at(3) after trim = %+v ok=%v, want ts ≥ 3", v, ok)
	}
	if _, ok := s.at("nope", 1, 0); ok {
		t.Fatal("missing key must miss")
	}
}

func TestStoreDuplicateInstall(t *testing.T) {
	s := newStore(0, 1)
	s.install("k", version{ts: 5, srcDC: 1})
	s.install("k", version{ts: 5, srcDC: 1})
	v, _ := s.latest("k")
	if v.ts != 5 {
		t.Fatalf("latest = %+v", v)
	}
	count := 0
	s.forEachLatest(func(string, version) { count++ })
	if count != 1 {
		t.Fatalf("keys = %d", count)
	}
}

func TestReplicationAcrossDCs(t *testing.T) {
	net, _, r := deploy(t, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	w := client(t, net, r, 0, 1)
	rd := client(t, net, r, 1, 1)
	if _, err := w.Put(ctx, "geo-a", []byte("va")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Put(ctx, "geo-b", []byte("vb")); err != nil { // depends on geo-a
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		kvs, err := rd.ROT(ctx, []string{"geo-a", "geo-b"})
		if err != nil {
			t.Fatal(err)
		}
		if string(kvs[1].Value) == "vb" {
			if string(kvs[0].Value) != "va" {
				t.Fatalf("geo-b visible without its dependency geo-a")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replication never delivered")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRounds2NeededFalseWhenConsistent(t *testing.T) {
	vals := map[string]wire.DepKV{
		"x": {KV: wire.KV{Key: "x", TS: 10}},
		"y": {KV: wire.KV{Key: "y", TS: 12}, Deps: []wire.LoDep{{Key: "x", TS: 10}}},
	}
	if cut := causalCut(vals); len(cut) != 0 {
		t.Fatalf("consistent round-1 results must not need a second round (cut %v)", cut)
	}
}

// TestCloseWithoutStart: Close on a server that was built but never
// Start()ed must return — with remote DCs there are replication streams to
// stop, and stopping used to wait for run loops that Start never launched
// (cluster.Start closes its servers on a later server's construction
// error).
func TestCloseWithoutStart(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()
	s, err := NewServer(Config{DC: 0, Part: 0, NumDCs: 2, NumParts: 1}, net)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close on a never-started 2-DC server did not return within 3 s")
	}
}

// TestLegValueCountChecked: CopsRotResp is positional, so a first-round leg
// that answers with more or fewer values than it was asked keys cannot be
// labelled. The ROT fails with wire.ErrValCount rather than return values
// under the wrong keys; legs with the right count are labelled in key order.
func TestLegValueCountChecked(t *testing.T) {
	r := ring.New(2)
	keys := []string{"k0"}
	for i := 1; len(keys) < 3; i++ {
		if k := fmt.Sprintf("k%d", i); r.Owner(k) != r.Owner(keys[0]) || len(keys) == 1 {
			keys = append(keys, k)
		}
	}
	for _, delta := range []int{0, -1, 1} {
		t.Run(fmt.Sprintf("delta %+d", delta), func(t *testing.T) {
			net := transport.NewLocal(transport.LatencyModel{})
			defer net.Close()
			for p := 0; p < 2; p++ {
				if _, err := net.Attach(wire.ServerAddr(0, p), transport.HandlerFunc(
					func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
						req, ok := m.(*wire.CopsRotReq)
						if !ok {
							_ = n.Respond(src, reqID, &wire.Pong{})
							return
						}
						vals := make([]wire.DepKV, 0, len(req.Keys)+1)
						for _, k := range req.Keys {
							vals = append(vals, wire.DepKV{KV: wire.KV{Value: []byte("v-" + k), TS: 1}})
						}
						if p == r.Owner(keys[2]) {
							vals = vals[:len(vals)+delta]
						}
						_ = n.Respond(src, reqID, &wire.CopsRotResp{Vals: vals})
					})); err != nil {
					t.Fatal(err)
				}
			}
			cli := dial(t, ClientConfig{DC: 0, ID: 1, Ring: r}, net)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			kvs, err := cli.ROT(ctx, keys)
			if delta != 0 {
				if !errors.Is(err, wire.ErrValCount) {
					t.Fatalf("ROT = %v, %v; want wire.ErrValCount", kvs, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, kv := range kvs {
				if kv.Key != keys[i] || string(kv.Value) != "v-"+keys[i] {
					t.Errorf("kvs[%d] = %s=%s, want %s=v-%s", i, kv.Key, kv.Value, keys[i], keys[i])
				}
			}
		})
	}
}
