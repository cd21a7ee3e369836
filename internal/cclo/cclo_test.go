package cclo

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/family"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

type testDeployment struct {
	net     *transport.Local
	servers []*Server
	ring    ring.Ring
}

func deploy(t *testing.T, dcs, parts int, gc time.Duration) *testDeployment {
	t.Helper()
	d := &testDeployment{
		net:  transport.NewLocal(transport.LatencyModel{}),
		ring: ring.New(parts),
	}
	for dc := 0; dc < dcs; dc++ {
		for p := 0; p < parts; p++ {
			s, err := NewServer(Config{
				DC: dc, Part: p, NumDCs: dcs, NumParts: parts, GCWindow: gc,
			}, d.net)
			if err != nil {
				t.Fatal(err)
			}
			d.servers = append(d.servers, s)
		}
	}
	for _, s := range d.servers {
		s.Start()
	}
	t.Cleanup(func() {
		for _, s := range d.servers {
			s.Close()
		}
		d.net.Close()
	})
	return d
}

func (d *testDeployment) client(t *testing.T, dc, id int) *Client {
	t.Helper()
	return dial(t, ClientConfig{DC: dc, ID: id, Ring: d.ring}, d.net)
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

// rawReader issues ROT reads with a fixed ROT id, one partition at a time,
// emulating the asynchrony of Figure 2 where a ROT's read of y arrives
// after causally newer versions were installed.
type rawReader struct {
	node transport.Node
}

func newRawReader(t *testing.T, d *testDeployment, id int) *rawReader {
	t.Helper()
	n, err := d.net.Attach(wire.ClientAddr(0, id), transport.HandlerFunc(
		func(transport.Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return &rawReader{node: n}
}

func (r *rawReader) read(t *testing.T, d *testDeployment, rotID uint64, key string) (string, uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	dst := wire.ServerAddr(0, d.ring.Owner(key))
	resp, err := r.node.Call(ctx, dst, &wire.LoRotReq{RotID: rotID, Keys: []string{key}})
	if err != nil {
		t.Fatal(err)
	}
	kv := resp.(*wire.LoRotResp).Vals[0]
	return string(kv.Value), kv.TS
}

// distinctKeys returns keys on two different partitions of a 2-partition
// ring.
func distinctKeys(r ring.Ring) (x, y string) {
	x = "x"
	for i := 0; ; i++ {
		y = fmt.Sprintf("y%d", i)
		if r.Owner(y) != r.Owner(x) {
			return x, y
		}
	}
}

// TestFigure2Scenario reproduces the paper's Figure 2 deterministically.
// ROT T1 reads x and obtains X0. C2 then overwrites x with X1 and writes
// Y1 with a dependency on X1; the readers check must record T1 in y's
// old-reader record, so T1's late read of y returns Y0, not Y1 — the
// snapshot {X0, Y0} stays causally consistent.
func TestFigure2Scenario(t *testing.T) {
	d := deploy(t, 1, 2, 0)
	ctx := context.Background()
	x, y := distinctKeys(d.ring)

	c2 := d.client(t, 0, 1)
	if _, err := c2.Put(ctx, x, []byte("X0")); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Put(ctx, y, []byte("Y0")); err != nil {
		t.Fatal(err)
	}

	t1 := newRawReader(t, d, 9)
	const rotID = 9<<32 | 1
	if v, _ := t1.read(t, d, rotID, x); v != "X0" {
		t.Fatalf("T1 read x = %q, want X0", v)
	}

	// C2 reads x (to depend on it), writes X1 then Y1.
	if _, err := c2.Get(ctx, x); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Put(ctx, x, []byte("X1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Put(ctx, y, []byte("Y1")); err != nil {
		t.Fatal(err)
	}

	// T1's read of y arrives only now. A naive latest-version read would
	// return Y1 and break the snapshot; the old-reader record prevents it.
	if v, _ := t1.read(t, d, rotID, y); v != "Y0" {
		t.Fatalf("T1 read y = %q, want Y0 (old-reader record must redirect)", v)
	}

	// A fresh ROT is not an old reader and sees the latest values.
	t2 := newRawReader(t, d, 10)
	const rotID2 = 10<<32 | 1
	if v, _ := t2.read(t, d, rotID2, y); v != "Y1" {
		t.Fatalf("fresh ROT read y = %q, want Y1", v)
	}
	if v, _ := t2.read(t, d, rotID2, x); v != "X1" {
		t.Fatalf("fresh ROT read x = %q, want X1", v)
	}
}

// TestOldReaderChainThroughServedRead extends Figure 2: after T1 is served
// the old version of y, a further write z depending on y must also treat
// T1 as an old reader (the old-reader record itself feeds readers checks).
func TestOldReaderChainThroughServedRead(t *testing.T) {
	d := deploy(t, 1, 2, 0)
	ctx := context.Background()
	x, y := distinctKeys(d.ring)
	z := x + "z" // any key; may share a partition with x or y

	c2 := d.client(t, 0, 1)
	c2.Put(ctx, x, []byte("X0"))
	c2.Put(ctx, y, []byte("Y0"))
	c2.Put(ctx, z, []byte("Z0"))

	t1 := newRawReader(t, d, 9)
	const rotID = 9<<32 | 7
	if v, _ := t1.read(t, d, rotID, x); v != "X0" {
		t.Fatal("setup: T1 must read X0")
	}

	c2.Get(ctx, x)
	c2.Put(ctx, x, []byte("X1"))
	c2.Put(ctx, y, []byte("Y1")) // T1 lands in y's old-reader record

	// T1 reads y late and is served Y0.
	if v, _ := t1.read(t, d, rotID, y); v != "Y0" {
		t.Fatalf("T1 read y = %q, want Y0", v)
	}

	// Now a write to z depends on Y1; T1 must not see it either.
	c2.Get(ctx, y)
	c2.Put(ctx, z, []byte("Z1"))
	if v, _ := t1.read(t, d, rotID, z); v != "Z0" {
		t.Fatalf("T1 read z = %q, want Z0 (old-reader status must chain)", v)
	}
}

// TestGCWindowExpiresOldReaders verifies the paper's §5.2 optimization: a
// reader entry older than the GC window is dropped, so a very late read is
// served the (fresher) latest version.
func TestGCWindowExpiresOldReaders(t *testing.T) {
	d := deploy(t, 1, 2, 30*time.Millisecond)
	ctx := context.Background()
	x, y := distinctKeys(d.ring)

	c2 := d.client(t, 0, 1)
	c2.Put(ctx, x, []byte("X0"))
	c2.Put(ctx, y, []byte("Y0"))

	t1 := newRawReader(t, d, 9)
	const rotID = 9<<32 | 1
	t1.read(t, d, rotID, x)

	c2.Get(ctx, x)
	c2.Put(ctx, x, []byte("X1"))
	c2.Put(ctx, y, []byte("Y1"))

	time.Sleep(100 * time.Millisecond) // expire T1's entries
	if v, _ := t1.read(t, d, rotID, y); v != "Y1" {
		t.Fatalf("expired old reader read y = %q, want latest Y1", v)
	}
}

func TestClientDependencyTracking(t *testing.T) {
	d := deploy(t, 1, 2, 0)
	ctx := context.Background()
	c := d.client(t, 0, 1)

	// Writes by another client to read from.
	w := d.client(t, 0, 2)
	for i := 0; i < 4; i++ {
		if _, err := w.Put(ctx, fmt.Sprintf("dep-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	if c.DepCount() != 0 {
		t.Fatalf("fresh client has %d deps", c.DepCount())
	}
	if _, err := c.ROT(ctx, []string{"dep-0", "dep-1", "dep-2"}); err != nil {
		t.Fatal(err)
	}
	if c.DepCount() != 3 {
		t.Fatalf("deps after 3-key ROT = %d, want 3", c.DepCount())
	}
	if _, err := c.ROT(ctx, []string{"dep-3"}); err != nil {
		t.Fatal(err)
	}
	if c.DepCount() != 4 {
		t.Fatalf("deps accumulate: got %d, want 4", c.DepCount())
	}
	// A PUT collapses the context to the write itself.
	if _, err := c.Put(ctx, "mine", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if c.DepCount() != 1 {
		t.Fatalf("deps after PUT = %d, want 1", c.DepCount())
	}
}

func TestReadersCheckStats(t *testing.T) {
	d := deploy(t, 1, 2, 0)
	ctx := context.Background()
	x, y := distinctKeys(d.ring)

	c := d.client(t, 0, 1)
	c.Put(ctx, x, []byte("X0"))

	// A few distinct clients read x, becoming readers.
	for i := 0; i < 5; i++ {
		r := d.client(t, 0, 10+i)
		if _, err := r.ROT(ctx, []string{x}); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite x: the 5 readers become old readers. Then write y with a
	// dependency on the new x; its readers check must collect them.
	c.Get(ctx, x)
	c.Put(ctx, x, []byte("X1")) // readers -> old readers
	c.Get(ctx, x)               // depend on X1
	c.Put(ctx, y, []byte("Y1"))

	var total StatsSnapshot
	for _, s := range d.servers {
		snap := s.Stats().Snapshot()
		total.Checks += snap.Checks
		total.IDsDistinct += snap.IDsDistinct
		total.PartitionsAsked += snap.PartitionsAsked
	}
	if total.Checks == 0 {
		t.Fatal("no readers checks recorded")
	}
	if total.IDsDistinct < 5 {
		t.Fatalf("collected %d distinct ids, want ≥ 5 old readers", total.IDsDistinct)
	}
	if total.PartitionsAsked == 0 {
		t.Fatal("no remote partitions interrogated")
	}
}

// TestAbsorbOnePerClient: merging keeps, per client, only the most recent
// ROT id (the paper's §5.2 optimization; sound for clients that issue one
// ROT at a time, because any older ROT has completed all its reads), and
// between two sightings of one ROT the earliest read time.
func TestAbsorbOnePerClient(t *testing.T) {
	out := slotSet{{rotID: 5<<32 | 1, t: 10}, {rotID: 7<<32 | 4, t: 9}}
	out = out.absorb(slotSet{
		{rotID: 4<<32 | 9, t: 1, vts: 50}, // served version too new: filtered
		{rotID: 5<<32 | 3, t: 30},
		{rotID: 6<<32 | 2, t: 20},
		{rotID: 7<<32 | 4, t: 8},
	}, 50)
	want := slotSet{{rotID: 5<<32 | 3, t: 30}, {rotID: 6<<32 | 2, t: 20}, {rotID: 7<<32 | 4, t: 8}}
	if !slices.Equal(out, want) {
		t.Fatalf("absorbed to %+v, want %+v", out, want)
	}
	// Anything not already ordered one-per-client (several recovered records
	// of one version) is folded on the way in.
	got := slotsFromWire(nil, []wire.ReaderEntry{{RotID: 6<<32 | 2, T: 20}, {RotID: 5<<32 | 1, T: 10}, {RotID: 5<<32 | 3, T: 30}})
	if !slices.Equal(got, want[:2]) {
		t.Fatalf("slotsFromWire folded to %+v, want %+v", got, want[:2])
	}
}

// read is serve in the shape the store tests compare: a refusal reads as
// not found (the refusal counter tells the two apart).
func (s *loStore) read(key string, rotID uint64, t uint64, now time.Time) (val []byte, ts uint64, src uint8, ok bool) {
	kv, err := s.serve(key, rotID, t, now)
	return kv.Value, kv.TS, kv.Src, err == nil && kv.TS != 0
}

func TestLWWConvergenceOrder(t *testing.T) {
	s := newLoStore(1, time.Second, false)
	now := time.Now()
	s.install("k", loVersion{value: []byte("a"), ts: 5, srcDC: 0}, nil, now)
	s.install("k", loVersion{value: []byte("b"), ts: 5, srcDC: 1}, nil, now)
	s.install("k", loVersion{value: []byte("c"), ts: 3, srcDC: 1}, nil, now)
	v, ok := s.latest("k")
	if !ok || string(v.value) != "b" {
		t.Fatalf("latest = %+v, want ts 5 dc 1", v)
	}
	// Same set, different order, same winner.
	s2 := newLoStore(1, time.Second, false)
	s2.install("k", loVersion{value: []byte("c"), ts: 3, srcDC: 1}, nil, now)
	s2.install("k", loVersion{value: []byte("b"), ts: 5, srcDC: 1}, nil, now)
	s2.install("k", loVersion{value: []byte("a"), ts: 5, srcDC: 0}, nil, now)
	v2, _ := s2.latest("k")
	if string(v2.value) != "b" {
		t.Fatalf("order dependence: latest = %+v", v2)
	}
}

func TestHasVersion(t *testing.T) {
	s := newLoStore(1, time.Second, false)
	if s.eng.Has("k", 1, 0) {
		t.Fatal("empty store claims version")
	}
	s.install("k", loVersion{ts: 10, srcDC: 1}, nil, time.Now())
	if !s.eng.Has("k", 10, 1) {
		t.Fatal("exact version must hold")
	}
	if s.eng.Has("k", 10, 0) {
		t.Fatal("same timestamp from another DC is a different version")
	}
	if s.eng.Has("k", 5, 1) {
		t.Fatal("never-installed version must fail (exact check, not ≥)")
	}
	if s.eng.Has("k", 11, 1) {
		t.Fatal("hasVersion above latest must fail")
	}
	// On a trimmed chain — unmarked versions keep only the newest — a
	// version LWW-below the oldest retained one can never be served again,
	// so it counts as installed.
	s2 := newLoStore(1, time.Second, false)
	now := time.Now()
	for ts := uint64(1); ts <= 5; ts++ {
		s2.install("k", loVersion{ts: ts}, nil, now)
	}
	if !s2.eng.Has("k", 2, 0) {
		t.Fatal("trimmed-past version must count as installed")
	}
}

// TestRefusedLegRetriesUnderFreshID: marks that land, through a re-delivered
// update, on the only version a trimmed chain kept leave the ROT they name
// nothing to be served. Its leg is refused — never answered with a version
// hidden from it — and the client retries the whole ROT under a fresh id,
// which no mark names. A ROT whose every attempt is refused fails with
// family.ErrSnapshotTooOld once the retries run out.
func TestRefusedLegRetriesUnderFreshID(t *testing.T) {
	d := deploy(t, 1, 1, time.Minute)
	srv, cli := d.servers[0], d.client(t, 0, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// markNext installs two versions of key (the chain keeps only the
	// second) and re-delivers the second carrying a mark for the id the
	// client's attempt ahead will take.
	markNext := func(key string, ahead uint64) {
		now := time.Now()
		srv.store.install(key, loVersion{value: []byte("v1"), ts: 1}, nil, now)
		srv.store.install(key, loVersion{value: []byte("v2"), ts: 2}, nil, now)
		if c := srv.store.eng.View(key); c.Len() != 1 || !c.Trimmed {
			t.Fatalf("%s: chain len %d trimmed %v, want the newest version alone", key, c.Len(), c.Trimmed)
		}
		rot := uint64(wire.ClientAddr(0, 1))<<32 | (cli.rotSeq.Load() + ahead)
		srv.store.install(key, loVersion{value: []byte("v2"), ts: 2}, slotSet{{rotID: rot, t: 1}}, now)
	}

	markNext("k", 1)
	seq := cli.rotSeq.Load()
	v, err := cli.Get(ctx, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("Get = %q, %v; want v2 after a retry", v, err)
	}
	if got := srv.Refusals(); got != 1 {
		t.Fatalf("refusals = %d, want 1", got)
	}
	if got := cli.rotSeq.Load() - seq; got != 2 {
		t.Fatalf("the ROT took %d ids, want the refused one and a fresh one", got)
	}

	keys := make([]string, maxFenceRetries+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("r%d", i)
		markNext(keys[i], uint64(i+1))
	}
	if _, err := cli.ROT(ctx, keys); !errors.Is(err, family.ErrSnapshotTooOld) {
		t.Fatalf("ROT refused on every attempt: %v, want family.ErrSnapshotTooOld", err)
	}
}

// TestReadersMoveOnFullChain is the regression test for a subtle bug: once
// a hot key's version chain reached its cap, installs were misclassified as
// "not newest" (the check ran after trimming) and readers were never moved
// to old readers, so readers checks missed them and ROTs could observe
// causally inconsistent snapshots.
func TestReadersMoveOnFullChain(t *testing.T) {
	s := newLoStore(1, time.Minute, false)
	now := time.Now()
	for ts := uint64(1); ts <= 10; ts++ {
		s.install("k", loVersion{ts: ts}, nil, now)
	}
	// The chain is trimmed to its newest version. A reader reads it...
	if _, ts, _, ok := s.read("k", 42, 100, now); !ok || ts != 10 {
		t.Fatalf("read latest = %d ok=%v", ts, ok)
	}
	// ...and a further install must still move it to old readers.
	s.install("k", loVersion{ts: 11}, nil, now)
	if out, _ := s.collectOldReaders("k", 11, now, nil); len(out) != 1 || out[0].rotID != 42 {
		t.Fatal("reader on a full chain was not moved to old readers on install")
	}
}

func BenchmarkStoreRead(b *testing.B) {
	s := newLoStore(1, time.Minute, false)
	now := time.Now()
	s.install("k", loVersion{value: make([]byte, 8), ts: 1}, nil, now)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.read("k", uint64(i), uint64(i+2), now)
	}
}

// BenchmarkCollectOldReaders measures the readers-check scan with a
// realistic number of old readers (≈ the per-client linear growth of
// Figure 6 at 256 clients).
func BenchmarkCollectOldReaders(b *testing.B) {
	s := newLoStore(1, time.Minute, false)
	now := time.Now()
	s.install("k", loVersion{ts: 1}, nil, now)
	for c := uint64(0); c < 256; c++ {
		s.read("k", c<<32|1, c+2, now)
	}
	s.install("k", loVersion{ts: 1000}, nil, now) // readers -> old readers
	b.ReportAllocs()
	b.ResetTimer()
	var out slotSet
	for i := 0; i < b.N; i++ {
		out, _ = s.collectOldReaders("k", 1000, now, out[:0])
		if len(out) != 256 {
			b.Fatalf("collected %d", len(out))
		}
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

// TestLegValueCountChecked: LoRotResp is positional, so a leg that answers
// with more or fewer values than it was asked keys cannot be labelled. The
// ROT fails with wire.ErrValCount rather than return values under the wrong
// keys; legs with the right count are labelled in key order.
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
						req, ok := m.(*wire.LoRotReq)
						if !ok {
							_ = n.Respond(src, reqID, &wire.Pong{})
							return
						}
						vals := make([]wire.KV, 0, len(req.Keys)+1)
						for _, k := range req.Keys {
							vals = append(vals, wire.KV{Value: []byte("v-" + k), TS: 1})
						}
						if p == r.Owner(keys[2]) {
							vals = vals[:len(vals)+delta]
						}
						_ = n.Respond(src, reqID, &wire.LoRotResp{Vals: vals, Epochs: []uint64{0, 0}})
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
				if n := cli.DepCount(); n != 0 {
					t.Fatalf("a failed ROT left %d dependencies", n)
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
