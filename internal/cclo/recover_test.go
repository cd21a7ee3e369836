package cclo

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestRecoverAfterSnapshotKeepsDeps is the regression test for the
// recover() gap the ROADMAP named: a local update that was still unacked
// by a remote DC when its log record was folded into a snapshot used to
// re-enqueue with an EMPTY dependency list (the snapshot serializer
// dropped Deps), so the receiving DC's dependency check was silently
// skipped for exactly the updates a crash made most fragile. The store now
// keeps each local version's dependency list and the snapshot re-emits it;
// this test fails on the old behavior.
func TestRecoverAfterSnapshotKeepsDeps(t *testing.T) {
	dir := t.TempDir()
	open := func() *wal.Log {
		l, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()

	// A 2-DC config whose remote DC is never attached: replication cannot
	// be acked, so the durable cursor stays at zero and recovery must
	// re-enqueue everything.
	cfg := Config{DC: 0, Part: 0, NumDCs: 2, NumParts: 1}
	log1 := open()
	cfg.Durable = log1
	srv1, err := NewServer(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	cli := dial(t, ClientConfig{DC: 0, ID: 1, Ring: ring.New(1)}, net)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ts1, err := cli.Put(ctx, "k1", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	// The session's second put carries k1@ts1 as its nearest dependency.
	if _, err := cli.Put(ctx, "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	// Snapshot: both records are compacted out of the segments and now
	// survive only as snapshot entries. Then crash (no clean final fsync).
	if err := log1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	if err := log1.Crash(); err != nil {
		t.Fatal(err)
	}

	log2 := open()
	defer log2.Close()
	cfg.Durable = log2
	srv2, err := NewServer(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	// DC1's replica appears only now, as a bare endpoint that records what
	// the recovered streams re-ship to it.
	got := make(chan *wire.LoRepUpdate, 4)
	dc1, err := net.Attach(wire.ServerAddr(1, 0), transport.HandlerFunc(
		func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
			if u, ok := m.(*wire.LoRepUpdate); ok {
				got <- &wire.LoRepUpdate{Key: u.Key, Deps: slices.Clone(u.Deps)}
				_ = n.Respond(src, reqID, &wire.RepAck{})
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer dc1.Close()
	srv2.Start()
	defer srv2.Close()
	var k2 *wire.LoRepUpdate
	for k2 == nil {
		select {
		case u := <-got:
			if u.Key == "k2" {
				k2 = u
			}
		case <-ctx.Done():
			t.Fatal("k2 was not re-enqueued for the unacked remote DC")
		}
	}
	if len(k2.Deps) == 0 {
		t.Fatal("snapshot-compacted record lost its dependency list: the re-enqueued update would skip dependency checks at the receiver")
	}
	if d := k2.Deps[0]; d.Key != "k1" || d.TS != ts1 || d.Src != 0 {
		t.Fatalf("re-enqueued deps = %+v, want k1@%d from DC0", k2.Deps, ts1)
	}
}

// TestSnapshotKeepsMarksOnNonLatestVersions closes the gap PR 5 named: the
// snapshot serializer only emitted each key's LATEST version and its marks,
// so compaction dropped both the invisibility marks on non-latest versions
// and the older versions a rewound ROT must be served. After a snapshot +
// crash, an in-window ROT hidden from every newer version of a key used to
// get "not found" (its rewind target was gone) — the Figure 1 anomaly
// reappearing across a recovery. Marked keys now emit their whole retained
// chain plus per-version reader records; this test fails on the old
// serializer.
func TestSnapshotKeepsMarksOnNonLatestVersions(t *testing.T) {
	dir := t.TempDir()
	open := func() *wal.Log {
		l, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()

	// Long GC window so the marks are still in-window across the crash.
	cfg := Config{DC: 0, Part: 0, NumDCs: 1, NumParts: 1, GCWindow: 30 * time.Second}
	log1 := open()
	cfg.Durable = log1
	srv1, err := NewServer(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()

	// A ROT read k@ts1; two dependent writes superseded it, each marked
	// invisible to the ROT by its readers check. ts1 is the one version the
	// ROT can consistently be served, and it is NOT the latest.
	const rot = uint64(77)
	now := time.Now()
	marked := slotSet{{rotID: rot, t: 5}}
	srv1.store.install("k", loVersion{value: []byte("v1"), ts: 1, srcDC: 0}, nil, now)
	srv1.store.install("k", loVersion{value: []byte("v2"), ts: 2, srcDC: 0}, slices.Clone(marked), now)
	srv1.store.install("k", loVersion{value: []byte("v3"), ts: 3, srcDC: 0}, slices.Clone(marked), now)

	// Compact everything into a snapshot, then crash.
	if err := log1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	if err := log1.Crash(); err != nil {
		t.Fatal(err)
	}

	log2 := open()
	defer log2.Close()
	cfg.Durable = log2
	srv2, err := NewServer(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	defer srv2.Close()

	// The recovered chain must hold all three versions with the marks back
	// on v2 and v3, so the straddling ROT is still rewound to v1.
	val, ts, _, ok := srv2.store.read("k", rot, 6, time.Now())
	if !ok {
		t.Fatal("rewound ROT got 'not found' after snapshot compaction: its rewind target was dropped")
	}
	if string(val) != "v1" || ts != 1 {
		t.Fatalf("rewound ROT read %q@%d, want v1@1: marks on non-latest versions were lost", val, ts)
	}
	// A fresh ROT still sees the latest.
	if val, _, _, ok := srv2.store.read("k", 999, 7, time.Now()); !ok || string(val) != "v3" {
		t.Fatalf("fresh ROT read %q, want v3", val)
	}
}
