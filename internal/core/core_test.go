package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/family"
	"repro/internal/mvstore"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// testDeployment wires servers, stabilizers and a client over a zero-latency
// local network inside the core package (white-box tests).
type testDeployment struct {
	net     *transport.Local
	servers []*Server
	stabs   []*Stabilizer
	ring    ring.Ring
}

func deploy(t *testing.T, dcs, parts int, clock ClockMode) *testDeployment {
	t.Helper()
	local := transport.NewLocal(transport.LatencyModel{})
	return deployOn(t, local, local, dcs, parts, clock)
}

// deployOn is deploy over local, with servers and stabilizers attached
// through via: local itself, or a tap around it.
func deployOn(t *testing.T, local *transport.Local, via transport.Network, dcs, parts int, clock ClockMode) *testDeployment {
	t.Helper()
	d := &testDeployment{net: local, ring: ring.New(parts)}
	for dc := 0; dc < dcs; dc++ {
		for p := 0; p < parts; p++ {
			s, err := NewServer(Config{
				DC: dc, Part: p, NumDCs: dcs, NumParts: parts,
				Clock: clock, RepFlushEvery: time.Millisecond,
			}, via)
			if err != nil {
				t.Fatal(err)
			}
			d.servers = append(d.servers, s)
		}
		st, err := NewStabilizer(dc, parts, dcs, time.Millisecond, via)
		if err != nil {
			t.Fatal(err)
		}
		d.stabs = append(d.stabs, st)
		st.Start()
	}
	for _, s := range d.servers {
		s.Start()
	}
	t.Cleanup(func() {
		for _, s := range d.servers {
			s.Close()
		}
		for _, st := range d.stabs {
			st.Close()
		}
		d.net.Close()
	})
	return d
}

func (d *testDeployment) client(t *testing.T, dc, id int, mode ROTMode) *Client {
	t.Helper()
	dcs := d.servers[len(d.servers)-1].cfg.NumDCs
	return dial(t, ClientConfig{DC: dc, ID: id, NumDCs: dcs, Ring: d.ring, Mode: mode}, d.net)
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

// TestMakeSV: remote entries are max(GSS, seen); the local entry is the
// coordinator's clock, raised to the session's seen local timestamp when
// that is ahead (the session's own PUT on a partition whose clock ran
// ahead). A short or empty context takes the clock.
func TestMakeSV(t *testing.T) {
	d := deploy(t, 2, 1, ClockHLC)
	s := d.servers[0] // dc0
	s.applyGSS(vclock.Vec{50, 40})
	sv := s.makeSV(vclock.Vec{999999, 60})
	if sv[1] != 60 {
		t.Fatalf("sv[1] = %d, want max(GSS, seen) = 60", sv[1])
	}
	if sv[0] < 999999 {
		t.Fatalf("sv[0] = %d, must cover client's seen local ts", sv[0])
	}
	ahead := s.clock.Now() + uint64(time.Hour/time.Microsecond)
	if sv := s.makeSV(vclock.Vec{ahead, 0}); sv[0] != ahead || sv[1] != 40 {
		t.Fatalf("sv = %v, want [%d 40]: the seen local entry is ahead of the clock", sv, ahead)
	}
	for _, seen := range []vclock.Vec{nil, {}} {
		if sv := s.makeSV(seen); sv[0] == 0 || sv[0] >= ahead || sv[1] != 40 {
			t.Fatalf("makeSV(%v) = %v, want [clock 40]", seen, sv)
		}
	}
	remote := d.servers[1] // dc1: its local entry lies past a one-entry context
	if sv := remote.makeSV(vclock.Vec{ahead}); sv[0] != ahead || sv[1] == 0 || sv[1] >= ahead {
		t.Fatalf("dc1 makeSV([%d]) = %v, want [%d clock]", ahead, sv, ahead)
	}
}

func TestGSSAdvancesWhenIdle(t *testing.T) {
	d := deploy(t, 2, 2, ClockHLC)
	// With HLCs and replication heartbeats, the GSS must advance with
	// physical time even though no PUT ever happens.
	g0 := d.servers[0].gssSnapshot()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		g1 := d.servers[0].gssSnapshot()
		if g1[0] > g0[0] && g1[1] > g0[1] && g1.Min() > 0 {
			return
		}
	}
	t.Fatalf("GSS did not advance while idle: %v -> %v", g0, d.servers[0].gssSnapshot())
}

func TestPutRespCarriesGSS(t *testing.T) {
	d := deploy(t, 1, 1, ClockHLC)
	cli := d.client(t, 0, 1, OneAndHalfRounds)
	ctx := context.Background()
	time.Sleep(20 * time.Millisecond) // let stabilization produce a GSS
	if _, err := cli.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	seen := cli.Seen()
	if seen[0] == 0 {
		t.Fatalf("client causal context not updated: %v", seen)
	}
}

// TestClientSeenMonotone: in both ROT modes a session's causal context
// only grows, and a ROT after the session's own PUT reads that PUT. With
// Lamport clocks the coordinator's clock can be behind the PUT's timestamp,
// so the ROT covers it only through the local entry of the context the
// request carries.
func TestClientSeenMonotone(t *testing.T) {
	for name, mode := range map[string]ROTMode{"1.5-round": OneAndHalfRounds, "2-round": TwoRounds} {
		t.Run(name, func(t *testing.T) {
			d := deploy(t, 1, 2, ClockLogical)
			cli := d.client(t, 0, 1, mode)
			ctx := context.Background()
			// lead[p] is a key partition p owns: a ROT listing it first is
			// coordinated by p.
			var lead [2]string
			for i := 0; lead[0] == "" || lead[1] == ""; i++ {
				k := fmt.Sprintf("lead%d", i)
				lead[d.ring.Owner(k)] = k
			}
			var prev vclock.Vec
			for i := 0; i < 10; i++ {
				k := fmt.Sprintf("k%d", i)
				// Rewriting k runs its partition's clock ahead of the
				// coordinator's.
				for j := 0; j < i; j++ {
					if _, err := cli.Put(ctx, k, []byte("old")); err != nil {
						t.Fatal(err)
					}
				}
				ts, err := cli.Put(ctx, k, []byte("v"))
				if err != nil {
					t.Fatal(err)
				}
				kvs, err := cli.ROT(ctx, []string{lead[1-d.ring.Owner(k)], k})
				if err != nil {
					t.Fatal(err)
				}
				if kvs[1].TS != ts || string(kvs[1].Value) != "v" {
					t.Fatalf("ROT after the session's PUT of %s at %d read %+v", k, ts, kvs[1])
				}
				cur := cli.Seen()
				if prev != nil && !prev.LEQ(cur) {
					t.Fatalf("client context went backwards: %v -> %v", prev, cur)
				}
				prev = cur
			}
		})
	}
}

func TestROTSnapshotTimestampsWithinSV(t *testing.T) {
	d := deploy(t, 1, 2, ClockHLC)
	cli := d.client(t, 0, 1, OneAndHalfRounds)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		cli.Put(ctx, fmt.Sprintf("a%d", i), []byte("v"))
	}
	kvs, err := cli.ROT(ctx, []string{"a0", "a1", "a2", "a3", "a4"})
	if err != nil {
		t.Fatal(err)
	}
	sv := cli.Seen()
	for _, kv := range kvs {
		if kv.TS > sv[0] {
			t.Fatalf("returned version ts %d above snapshot %v", kv.TS, sv)
		}
		if kv.TS == 0 {
			t.Fatalf("key %s missing from snapshot read", kv.Key)
		}
	}
}

func TestStabilizerAggregatesMin(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()
	st, err := NewStabilizer(0, 2, 2, time.Millisecond, net)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Start()

	gssCh := make(chan vclock.Vec, 16)
	// Fake partitions that capture GSS broadcasts.
	for p := 0; p < 2; p++ {
		_, err := net.Attach(wire.ServerAddr(0, p), transport.HandlerFunc(
			func(_ transport.Node, _ wire.From, _ uint64, m wire.Message) {
				if g, ok := m.(*wire.GSSBcast); ok {
					select {
					case gssCh <- g.GSS:
					default:
					}
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
	}
	reporter, _ := net.Attach(wire.ClientAddr(0, 77), transport.HandlerFunc(func(transport.Node, wire.From, uint64, wire.Message) {}))
	reporter.Send(wire.StabilizerAddr(0), &wire.VVReport{Part: 0, VV: vclock.Vec{100, 30}})
	reporter.Send(wire.StabilizerAddr(0), &wire.VVReport{Part: 1, VV: vclock.Vec{80, 50}})

	deadline := time.After(3 * time.Second)
	for {
		select {
		case g := <-gssCh:
			if g.Equal(vclock.Vec{80, 30}) {
				return
			}
		case <-deadline:
			t.Fatal("expected GSS [80 30] never broadcast")
		}
	}
}

func TestStabilizerWaitsForAllPartitions(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()
	st, err := NewStabilizer(0, 3, 2, time.Millisecond, net)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Start()
	reporter, _ := net.Attach(wire.ClientAddr(0, 77), transport.HandlerFunc(func(transport.Node, wire.From, uint64, wire.Message) {}))
	reporter.Send(wire.StabilizerAddr(0), &wire.VVReport{Part: 0, VV: vclock.Vec{100, 30}})
	time.Sleep(50 * time.Millisecond)
	if g := st.GSS(); g.Max() != 0 {
		t.Fatalf("GSS advanced with only 1/3 partitions reporting: %v", g)
	}
}

// TestReplicationDuplicateBatchIgnored pins the receiver rule: a batch is
// dropped if and only if the receiver's VV already covers its HighTS, and
// either way it is acked. The receiver is durable and alone — DC1's replica
// with no live DC0 stream moving its VV behind the test's back.
func TestReplicationDuplicateBatchIgnored(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()
	dur := newFakeDurable()
	s, err := NewServer(Config{DC: 1, NumDCs: 2, Durable: dur}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sender, _ := net.Attach(wire.ServerAddr(0, 0), transport.HandlerFunc(func(transport.Node, wire.From, uint64, wire.Message) {}))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	send := func(b *wire.RepBatch, wantAppends, wantChain int, wantVV uint64) {
		t.Helper()
		resp, err := sender.Call(ctx, s.Addr(), b)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := resp.(*wire.RepAck); !ok {
			t.Fatalf("batch at HighTS %d answered %T, want a RepAck", b.HighTS, resp)
		}
		if got := dur.synced.Load(); got != int64(wantAppends) {
			t.Fatalf("after the batch at HighTS %d: %d WAL appends, want %d", b.HighTS, got, wantAppends)
		}
		if got := s.store.ChainLen("dup"); got != wantChain {
			t.Fatalf("after the batch at HighTS %d: chain len %d, want %d", b.HighTS, got, wantChain)
		}
		if got := s.vvSnapshot()[0]; got != wantVV {
			t.Fatalf("after the batch at HighTS %d: vv[0] = %d, want %d", b.HighTS, got, wantVV)
		}
	}

	batch := &wire.RepBatch{
		SrcDC: 0, HighTS: 10,
		Ups: []wire.Update{{Key: "dup", Value: []byte("v"), TS: 10, DV: vclock.Vec{10, 0}}},
	}
	send(batch, 1, 1, 10)                                // above VV: logged, installed once, VV moves
	send(batch, 1, 1, 10)                                // covered: acked, neither logged nor installed again
	send(&wire.RepBatch{SrcDC: 0, HighTS: 20}, 1, 1, 20) // an empty batch above VV moves it
	send(&wire.RepBatch{SrcDC: 0, HighTS: 15}, 1, 1, 20) // one at or below VV changes nothing
}

func TestTwoRoundROTReadsOwnCoordinatorPartition(t *testing.T) {
	d := deploy(t, 1, 1, ClockHLC) // single partition: coordinator serves all keys
	cli := d.client(t, 0, 1, TwoRounds)
	ctx := context.Background()
	if _, err := cli.Put(ctx, "only", []byte("x")); err != nil {
		t.Fatal(err)
	}
	kvs, err := cli.ROT(ctx, []string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	if string(kvs[0].Value) != "x" {
		t.Fatalf("got %q", kvs[0].Value)
	}
}

func TestConfigDefaults(t *testing.T) {
	if stabilizePeriod != 5*time.Millisecond {
		t.Fatalf("stabilization period = %v, want 5ms (paper §5.2)", stabilizePeriod)
	}
	c := Config{}.withDefaults()
	if c.NumDCs != 1 || c.NumParts != 1 || c.RepFlushEvery <= 0 {
		t.Fatalf("bad defaults: %+v", c)
	}
}

func TestClockModes(t *testing.T) {
	if !(Config{Clock: ClockHLC}).newClock().CanJump() {
		t.Fatal("HLC must jump")
	}
	if (Config{Clock: ClockPhysical}).newClock().CanJump() {
		t.Fatal("physical must not jump")
	}
	if !(Config{Clock: ClockLogical}).newClock().CanJump() {
		t.Fatal("logical must jump")
	}
}

// TestClientGroupsCoordinatorIsFirstKeyOwner checks the read groups a
// 1 1/2-round ROT actually sends: the coordinator request goes to the first
// key's owner and lists the groups in order of first appearance (so that
// owner's comes first), with every key exactly once, in its owner's group.
func TestClientGroupsCoordinatorIsFirstKeyOwner(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	t.Cleanup(func() { net.Close() })
	const parts = 4
	r := ring.New(parts)
	type coordReq struct {
		part   int
		groups []wire.ReadGroup
	}
	sent := make(chan coordReq, 1)
	for p := 0; p < parts; p++ {
		node, err := net.Attach(wire.ServerAddr(0, p), transport.HandlerFunc(
			func(_ transport.Node, _ wire.From, _ uint64, m wire.Message) {
				req, ok := m.(*wire.RotCoordReq)
				if !ok {
					return
				}
				sent <- coordReq{p, req.Groups}
			}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
	}
	cli := dial(t, ClientConfig{DC: 0, ID: 1, NumDCs: 1, Ring: r, Mode: OneAndHalfRounds}, net)
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := cli.ROT(ctx, keys)
		done <- err
	}()
	var got coordReq
	select {
	case got = <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("no coordinator request sent")
	}
	cancel()
	<-done

	var order []uint32 // owners in order of first appearance
	for _, k := range keys {
		if p := uint32(r.Owner(k)); !slices.Contains(order, p) {
			order = append(order, p)
		}
	}
	if len(order) < 3 {
		t.Fatalf("keys span %d partitions; the test needs at least 3", len(order))
	}
	if got.part != r.Owner(keys[0]) {
		t.Fatalf("coordinator request went to partition %d, want owner of %q (%d)", got.part, keys[0], r.Owner(keys[0]))
	}
	var sentParts []uint32
	seen := map[string]int{}
	for _, g := range got.groups {
		sentParts = append(sentParts, g.Part)
		for _, k := range g.Keys {
			seen[k]++
			if r.Owner(k) != int(g.Part) {
				t.Fatalf("key %q grouped under %d, owned by %d", k, g.Part, r.Owner(k))
			}
		}
	}
	if !slices.Equal(sentParts, order) {
		t.Fatalf("groups sent for partitions %v, want first-appearance order %v", sentParts, order)
	}
	for _, k := range keys {
		if seen[k] != 1 {
			t.Fatalf("key %q appears %d times", k, seen[k])
		}
	}
}

func TestWarmAndPing(t *testing.T) {
	d := deploy(t, 1, 3, ClockHLC)
	cli := d.client(t, 0, 1, OneAndHalfRounds)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cli.Warm(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cli.Ping(ctx, 0); err != nil {
		t.Fatal(err)
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

// TestStabilizerCloseWithoutStart: Close on a stabilizer that was built but
// never Start()ed must return (it used to wait for a loop Start never
// launched — cluster.Start closes what it built when a later constructor
// fails), and a second Close must not panic on the already-closed channel.
func TestStabilizerCloseWithoutStart(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()
	st, err := NewStabilizer(0, 2, 2, time.Millisecond, net)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		st.Close()
		st.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close on a never-started stabilizer did not return within 3 s")
	}
}

// TestRefusedLegRetriesAtFrontier: a ROT leg whose snapshot is below its
// partition's trim frontier, on a key whose chain that frontier trimmed, is
// refused rather than answered approximately; the client folds the
// frontier into its causal context and the retry reads the exact snapshot
// — on both ROT modes. A chain the count ceiling trimmed past anything the
// client can see keeps refusing, and the ROT gives up with
// family.ErrSnapshotTooOld after its bounded retries.
func TestRefusedLegRetriesAtFrontier(t *testing.T) {
	for _, mode := range []ROTMode{OneAndHalfRounds, TwoRounds} {
		t.Run(fmt.Sprintf("mode%d", mode), func(t *testing.T) {
			net := transport.NewLocal(transport.LatencyModel{})
			defer net.Close()
			// Two partitions of DC 0 in a 2-DC deployment, never Started: no
			// stabilizer and no reports, so each one's GSS is what the test
			// hands it, and DC 1's writes are installed directly.
			var srv [2]*Server
			for p := range srv {
				s, err := NewServer(Config{DC: 0, Part: p, NumDCs: 2, NumParts: 2}, net)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				srv[p] = s
			}
			rg := ring.New(2)
			owned := func(p int, prefix string) string {
				for i := 0; ; i++ {
					if k := fmt.Sprintf("%s%d", prefix, i); rg.Owner(k) == p {
						return k
					}
				}
			}
			x, y, z := owned(0, "x"), owned(1, "y"), owned(1, "z")
			remote := func(ts uint64) mvstore.Version {
				return mvstore.Version{Value: []byte(fmt.Sprint(ts)), TS: ts, SrcDC: 1, DV: vclock.Vec{0, ts}}
			}
			srv[0].store.Install(x, remote(5))
			srv[1].store.Install(y, remote(10))
			srv[1].store.Install(y, remote(20))
			// Partition 1's GSS reaches [1 20] and holds for frontierLag, so
			// the next broadcast makes [1 20] its frontier; the next install
			// of y drops 10, which 20 hides from every snapshot at or above
			// it.
			srv[1].applyGSS(vclock.Vec{1, 20})
			srv[1].past[0].at = srv[1].past[0].at.Add(-frontierLag)
			srv[1].applyGSS(vclock.Vec{1, 20})
			srv[1].store.Install(y, remote(30))
			if n := srv[1].store.ChainLen(y); n != 2 {
				t.Fatalf("y retains %d versions, want 2 (20 and 30)", n)
			}

			cli := dial(t, ClientConfig{DC: 0, ID: 1, NumDCs: 2, Ring: rg, Mode: mode}, net)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// Coordinator 0's GSS is zero, so the first snapshot sees no DC 1
			// write: y's exact answer there (10, or nothing) was trimmed.
			kvs, err := cli.ROT(ctx, []string{x, y})
			if err != nil {
				t.Fatal(err)
			}
			if got := srv[1].store.Refusals(); got != 1 {
				t.Fatalf("partition 1 refused %d reads, want exactly the first attempt's", got)
			}
			if string(kvs[0].Value) != "5" || string(kvs[1].Value) != "20" {
				t.Fatalf("retry read x=%q y=%q, want the snapshot at the frontier: x=5 y=20", kvs[0].Value, kvs[1].Value)
			}
			if seen := cli.Seen(); seen[1] != 20 {
				t.Fatalf("client context %v did not take the frontier's DC 1 entry", seen)
			}

			// z is written past the count ceiling with nothing the frontier
			// reaches: every snapshot the client can get is refused.
			for n := 1; srv[1].store.ChainLen(z) == n-1; n++ {
				srv[1].store.Install(z, remote(uint64(99+n)))
			}
			if _, err := cli.ROT(ctx, []string{x, z}); !errors.Is(err, family.ErrSnapshotTooOld) {
				t.Fatalf("ROT over a chain trimmed past every reachable snapshot: %v, want family.ErrSnapshotTooOld", err)
			}
			if got := srv[1].store.Refusals(); got != 1+1+snapshotRetries {
				t.Fatalf("partition 1 refused %d reads, want %d", got, 1+1+snapshotRetries)
			}
		})
	}
}

// TestCoordinatorShedRetried: a coordinator that sheds a 1 1/2-round ROT
// answers with a one-way Busy echoing the ROT id (the request was itself
// one-way, so there is no request id to answer). The client backs off and
// retries the whole ROT, counting the retry; against a partition that never
// stops shedding it gives up with transport.ErrOverloaded.
func TestCoordinatorShedRetried(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sheds int32
	}{
		{"sheds once", 1},
		{"always sheds", 1 << 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewLocal(transport.LatencyModel{})
			defer net.Close()
			var attempts atomic.Int32
			if _, err := net.Attach(wire.ServerAddr(0, 0), transport.HandlerFunc(
				func(n transport.Node, src wire.From, _ uint64, m wire.Message) {
					req, ok := m.(*wire.RotCoordReq)
					if !ok {
						return
					}
					if attempts.Add(1) <= tc.sheds {
						_ = n.SendTo(src, &wire.Busy{Echo: req.RotID, RetryAfterMicros: 100})
						return
					}
					_ = n.SendTo(src, &wire.RotSnap{RotID: req.RotID, SV: vclock.Vec{1},
						Vals: []wire.KV{{Key: "k", Value: []byte("v"), TS: 1}}})
				})); err != nil {
				t.Fatal(err)
			}
			cli := dial(t, ClientConfig{DC: 0, ID: 1, NumDCs: 1, Ring: ring.New(1)}, net)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			kvs, err := cli.ROT(ctx, []string{"k"})
			if tc.sheds > 1 {
				if !errors.Is(err, transport.ErrOverloaded) {
					t.Fatalf("ROT against a partition that always sheds: %v, want transport.ErrOverloaded", err)
				}
				if n := cli.BusyRetries(); n != transport.DefaultBusyRetries {
					t.Fatalf("BusyRetries = %d, want %d", n, transport.DefaultBusyRetries)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if string(kvs[0].Value) != "v" {
				t.Fatalf("retried ROT read %q, want v", kvs[0].Value)
			}
			if n := cli.BusyRetries(); n != 1 {
				t.Fatalf("BusyRetries = %d after one shed, want 1", n)
			}
		})
	}
}

// TestLegValueCountChecked: read responses are positional, so a leg that
// answers with more or fewer values than it was asked keys cannot be
// labelled. The ROT fails with wire.ErrValCount rather than return values
// under the wrong keys; a leg with the right count is labelled in key order.
// Fake partitions answer for both modes: in 1 1/2 rounds the coordinator
// sends its own RotSnap and the forwarded group's RotVals itself.
func TestLegValueCountChecked(t *testing.T) {
	r := ring.New(2)
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		// Two keys on the coordinator (the first key's owner), one elsewhere.
		if len(keys) == 0 || (r.Owner(k) == r.Owner(keys[0])) == (len(keys) == 1) {
			keys = append(keys, k)
		}
	}
	answer := func(keys []string, delta int) []wire.KV {
		vals := make([]wire.KV, 0, len(keys)+1)
		for _, k := range keys {
			vals = append(vals, wire.KV{Value: []byte("v-" + k), TS: 1})
		}
		if delta < 0 {
			return vals[:len(vals)-1]
		}
		return append(vals, make([]wire.KV, delta)...)
	}
	for _, tc := range []struct {
		name  string
		mode  ROTMode
		wrong int // the group index whose leg answers one value too many (or too few), -1 none
		delta int
	}{
		{"1.5 rounds, right counts", OneAndHalfRounds, -1, 0},
		{"1.5 rounds, snapshot short", OneAndHalfRounds, 0, -1},
		{"1.5 rounds, forwarded leg long", OneAndHalfRounds, 1, 1},
		{"2 rounds, right counts", TwoRounds, -1, 0},
		{"2 rounds, coordinator's leg short", TwoRounds, 0, -1},
		{"2 rounds, other leg long", TwoRounds, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewLocal(transport.LatencyModel{})
			defer net.Close()
			delta := func(part uint32) int {
				if tc.wrong >= 0 && int(part) == (r.Owner(keys[0])+tc.wrong)%2 {
					return tc.delta
				}
				return 0
			}
			for p := 0; p < 2; p++ {
				if _, err := net.Attach(wire.ServerAddr(0, p), transport.HandlerFunc(
					func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
						switch req := m.(type) {
						case *wire.RotCoordReq:
							if req.Mode == uint8(TwoRounds) {
								_ = n.Respond(src, reqID, &wire.RotCoordResp{RotID: req.RotID, SV: vclock.Vec{1}})
								return
							}
							for i, g := range req.Groups {
								vals := answer(g.Keys, delta(g.Part))
								if i == 0 {
									_ = n.SendTo(src, &wire.RotSnap{RotID: req.RotID, SV: vclock.Vec{1}, Vals: vals})
								} else {
									_ = n.SendTo(src, &wire.RotVals{RotID: req.RotID, Part: g.Part, Vals: vals})
								}
							}
						case *wire.RotReadReq:
							_ = n.Respond(src, reqID, &wire.RotReadResp{Vals: answer(req.Keys, delta(uint32(p)))})
						}
					})); err != nil {
					t.Fatal(err)
				}
			}
			cli := dial(t, ClientConfig{DC: 0, ID: 1, NumDCs: 1, Ring: r, Mode: tc.mode}, net)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			kvs, err := cli.ROT(ctx, keys)
			if tc.wrong >= 0 {
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
