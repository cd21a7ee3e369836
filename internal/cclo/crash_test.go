package cclo

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/family"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// crashRig is a 1-DC, 2-partition CC-LO deployment with one WAL per
// partition, built for kill -9 + restart of individual partitions: the
// in-flight-ROT crash scenarios ROADMAP called the last correctness hole.
type crashRig struct {
	t    *testing.T
	net  *transport.Local
	ring ring.Ring
	dirs [2]string
	logs [2]*wal.Log
	srvs [2]*Server
	kx   string // owned by partition 0
	ky   string // owned by partition 1
}

func newCrashRig(t *testing.T, durable bool) *crashRig {
	t.Helper()
	rig := &crashRig{
		t:    t,
		net:  transport.NewLocal(transport.LatencyModel{}),
		ring: ring.New(2),
	}
	t.Cleanup(func() { rig.net.Close() })
	rig.kx = keyOwnedBy(rig.ring, 0)
	rig.ky = keyOwnedBy(rig.ring, 1)
	for p := 0; p < 2; p++ {
		if durable {
			rig.dirs[p] = t.TempDir()
		}
		rig.start(p)
	}
	t.Cleanup(func() {
		for p := 0; p < 2; p++ {
			if rig.srvs[p] != nil {
				rig.srvs[p].Close()
			}
			if rig.logs[p] != nil {
				rig.logs[p].Close()
			}
		}
	})
	return rig
}

func (r *crashRig) start(p int) {
	cfg := Config{DC: 0, Part: p, NumDCs: 1, NumParts: 2, GCWindow: time.Minute}
	if r.dirs[p] != "" {
		l, err := wal.Open(wal.Options{Dir: r.dirs[p]})
		if err != nil {
			r.t.Fatal(err)
		}
		r.logs[p] = l
		cfg.Durable = l
	}
	s, err := NewServer(cfg, r.net)
	if err != nil {
		r.t.Fatal(err)
	}
	s.Start()
	r.srvs[p] = s
}

// crashRestart is the in-process kill -9: the WAL loses everything the
// last fsync did not cover, the server dies with its soft state, and a
// fresh server recovers over the same directory.
func (r *crashRig) crashRestart(p int) {
	r.t.Helper()
	if r.logs[p] == nil {
		r.t.Fatal("crashRestart needs a durable rig")
	}
	if err := r.logs[p].Crash(); err != nil {
		r.t.Fatal(err)
	}
	r.srvs[p].Close()
	r.start(p)
}

func (r *crashRig) client(id int) *Client {
	r.t.Helper()
	return dial(r.t, ClientConfig{DC: 0, ID: id, Ring: r.ring}, r.net)
}

func (r *crashRig) put(cli *Client, key, val string) uint64 {
	r.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ts, err := cli.Put(ctx, key, []byte(val))
	if err != nil {
		r.t.Fatal(err)
	}
	return ts
}

// rawRot plays one leg of a multi-partition ROT by hand: the only way to
// make a leg land after a crash its sibling leg preceded.
func (r *crashRig) rawRot(node transport.Node, part int, rotID uint64, key string) *wire.LoRotResp {
	r.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		rr, err := family.As[*wire.LoRotResp](node.Call(ctx, wire.ServerAddr(0, part), &wire.LoRotReq{RotID: rotID, Keys: []string{key}}))
		cancel()
		if err == nil {
			return rr
		}
		if errors.Is(err, wire.ErrUnknownType) || time.Now().After(deadline) {
			r.t.Fatalf("leg to p%d never served: %v", part, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func keyOwnedBy(r ring.Ring, part int) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("ck%d", i)
		if r.Owner(k) == part {
			return k
		}
	}
}

// readerNode attaches a raw client-address node for hand-played ROT legs.
func (r *crashRig) readerNode(id int) (transport.Node, uint64) {
	r.t.Helper()
	n, err := r.net.Attach(wire.ClientAddr(0, id), transport.HandlerFunc(
		func(transport.Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { n.Close() })
	return n, uint64(n.Addr())<<32 | 1
}

// TestStraddlingROTRewindAcrossCrash is the tentpole regression test: a
// multi-partition ROT reads p0, p1 is kill -9'd and restarted, and the ROT
// reads p1 — the version a concurrent dependent write marked invisible to
// it BEFORE the crash must stay invisible, i.e. the ROT still rewinds.
// Before old-reader records were persisted (wal.RecReaders), the restart
// dropped the mark and this test read y2 next to x1: the Figure 1 anomaly,
// resurrected by recovery.
func TestStraddlingROTRewindAcrossCrash(t *testing.T) {
	rig := newCrashRig(t, true)
	w := rig.client(1)
	rig.put(w, rig.kx, "x1")
	rig.put(w, rig.ky, "y1")

	node, rotID := rig.readerNode(77)
	// Leg 1: read x1 at p0; p0 records this ROT as a reader of kx.
	leg1 := rig.rawRot(node, 0, rotID, rig.kx)
	if got := string(leg1.Vals[0].Value); got != "x1" {
		t.Fatalf("leg1 read %q, want x1", got)
	}

	// A dependent write supersedes both keys: y2 depends on x2, so the
	// readers check at p0 finds our ROT (old reader of x) and marks y2
	// invisible to it at p1 — and persists the mark with the install.
	rig.put(w, rig.kx, "x2")
	rig.put(w, rig.ky, "y2")

	rig.crashRestart(1)

	// Leg 2 after the restart: recovery must have rebuilt y2's mark.
	leg2 := rig.rawRot(node, 1, rotID, rig.ky)
	if got := string(leg2.Vals[0].Value); got != "y1" {
		t.Fatalf("straddling ROT read %s=%q after p1's restart, want the rewind to y1: "+
			"the crash stripped the persisted invisibility mark", rig.ky, got)
	}
}

// TestEpochFenceSignalOnRestartedFirstLeg covers the half of the crash gap
// persisted marks cannot: the CRASHED partition held the ROT's reader
// record (leg 1 landed there before the kill), so the dependent write's
// readers check finds nothing and the new version is installed with no
// mark at an intact partition. No rewind is possible — but the readers
// check that skipped the lost record also carried p0's new epoch to p1, so
// the sibling leg's response must expose the restart and let the client
// fence the ROT.
func TestEpochFenceSignalOnRestartedFirstLeg(t *testing.T) {
	rig := newCrashRig(t, true)
	w := rig.client(1)
	rig.put(w, rig.kx, "x1")
	rig.put(w, rig.ky, "y1")

	node, rotID := rig.readerNode(78)
	leg1 := rig.rawRot(node, 0, rotID, rig.kx)
	if got := string(leg1.Vals[0].Value); got != "x1" {
		t.Fatalf("leg1 read %q, want x1", got)
	}
	e0 := leg1.Epochs[0]
	if e0 == 0 {
		t.Fatal("durable partition reported epoch 0; the restart fence has no base")
	}

	// p0 restarts: our reader record on kx dies with it.
	rig.crashRestart(0)

	// The dependent write now misses us: y2 installs at p1 unmarked. Its
	// readers check to (post-restart) p0 is the causal channel that hands
	// p1 the new epoch before y2 becomes visible.
	w2 := rig.client(2)
	rig.put(w2, rig.kx, "x2")
	rig.put(w2, rig.ky, "y2")

	leg2 := rig.rawRot(node, 1, rotID, rig.ky)
	if got := string(leg2.Vals[0].Value); got != "y2" {
		t.Fatalf("leg2 read %q; expected the unprotected y2 — the scenario did not reproduce", got)
	}
	if leg2.Epochs[0] <= e0 {
		t.Fatalf("p1's leg reports epoch %d for p0, leg1 saw %d: the restart never propagated, "+
			"the client fence cannot catch this straddle", leg2.Epochs[0], e0)
	}
}

// TestClientFenceRetriesTransparently drives the real client through the
// lost-reader-record straddle: leg p0 is served, p0 is kill -9'd and
// restarted (dropping the record), a dependent write supersedes both keys,
// and only then is the held p1 leg released. The client must detect the
// epoch skew, retry the whole ROT once, and return a causally consistent
// snapshot. Without the fence the ROT returns x1 next to y2.
func TestClientFenceRetriesTransparently(t *testing.T) {
	rig := newCrashRig(t, true)
	w := rig.client(1)
	rig.put(w, rig.kx, "x1")
	rig.put(w, rig.ky, "y1")

	reader := rig.client(9)
	release := make(chan struct{})
	var held atomic.Bool
	reader.legGate = func(part int) {
		// Hold only the FIRST p1 leg; the fence's retry must sail through.
		if part == 1 && held.CompareAndSwap(false, true) {
			<-release
		}
	}

	type rotResult struct {
		kvs []wire.KV
		err error
	}
	done := make(chan rotResult, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		kvs, err := reader.ROT(ctx, []string{rig.kx, rig.ky})
		done <- rotResult{kvs, err}
	}()

	// Wait for leg p0 to be served: its reader record appears in p0's store.
	waitFor(t, func() bool {
		readers, _ := rig.srvs[0].store.readerSizes(rig.kx)
		return readers > 0
	})

	rig.crashRestart(0)
	w2 := rig.client(2)
	rig.put(w2, rig.kx, "x2")
	rig.put(w2, rig.ky, "y2") // readers check to p0 gossips the new epoch to p1
	close(release)

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	var xv, yv string
	for _, kv := range res.kvs {
		switch kv.Key {
		case rig.kx:
			xv = string(kv.Value)
		case rig.ky:
			yv = string(kv.Value)
		}
	}
	if yv == "y2" && xv != "x2" {
		t.Fatalf("ROT returned %s=%q with %s=%q: y2 depends on x2 — the epoch fence did not fire", rig.ky, yv, rig.kx, xv)
	}
	if got := reader.FenceRetries(); got != 1 {
		t.Fatalf("FenceRetries = %d, want exactly 1 (one straddle, one transparent retry)", got)
	}
}

// TestFirstVersionStartupRace is the un-crashed half of the startup race
// that made internal/check seed its keyspace: a ROT that probes a missing
// key is recorded as a (vts 0) reader, so a first version installed next —
// and anything depending on it — still rewinds for that ROT. This is the
// direct regression guard for deleting the checker's seeding workaround.
func TestFirstVersionStartupRace(t *testing.T) {
	rig := newCrashRig(t, false)
	node, rotID := rig.readerNode(79)

	// Leg 1 probes ky before any version exists.
	leg1 := rig.rawRot(node, 1, rotID, rig.ky)
	if leg1.Vals[0].Value != nil {
		t.Fatalf("probe returned %q, want missing", leg1.Vals[0].Value)
	}

	// First version of ky, then a write depending on it at p0: the readers
	// check must surface the probing ROT and hide x1 from it.
	w := rig.client(1)
	rig.put(w, rig.ky, "y1")
	rig.put(w, rig.kx, "x1") // deps: {ky@y1}

	leg2 := rig.rawRot(node, 0, rotID, rig.kx)
	if leg2.Vals[0].Value != nil {
		t.Fatalf("ROT that missed %s read %s=%q: first-version dependents must stay invisible (the Figure 1 anomaly with a missing key)",
			rig.ky, rig.kx, leg2.Vals[0].Value)
	}
}

// TestFirstVersionStartupRaceAcrossCrash is the crashed half: the
// negative-read record is soft state, so a kill -9 of the probed partition
// drops it and x1 installs unhidden — but the dependent write's readers
// check gossips the probed partition's new epoch, so the sibling leg
// exposes the straddle to the fence exactly as in the non-empty-key case.
func TestFirstVersionStartupRaceAcrossCrash(t *testing.T) {
	rig := newCrashRig(t, true)
	node, rotID := rig.readerNode(80)

	leg1 := rig.rawRot(node, 1, rotID, rig.ky)
	if leg1.Vals[0].Value != nil {
		t.Fatalf("probe returned %q, want missing", leg1.Vals[0].Value)
	}
	e1 := leg1.Epochs[1]

	rig.crashRestart(1) // the probe record dies here

	w := rig.client(1)
	rig.put(w, rig.ky, "y1")
	rig.put(w, rig.kx, "x1") // readers check to p1 carries p1's new epoch to p0

	leg2 := rig.rawRot(node, 0, rotID, rig.kx)
	if leg2.Vals[0].Value == nil {
		t.Fatal("x1 hidden despite the lost probe record; scenario did not reproduce")
	}
	if leg2.Epochs[1] <= e1 {
		t.Fatalf("p0's leg reports epoch %d for p1, probe saw %d: restart invisible to the fence", leg2.Epochs[1], e1)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
