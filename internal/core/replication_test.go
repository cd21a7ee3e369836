package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hlc"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
)

// fakeDurable is an in-memory wal.Durability: log is what Replay replays,
// recovered the cursor table it recovers, synced counts synced appends, and
// cursorCh receives every cursor appended (sized so AppendCursor never
// blocks).
type fakeDurable struct {
	log       []wal.Record
	recovered []wal.Cursor
	synced    atomic.Int64
	cursorCh  chan wal.Cursor
}

func newFakeDurable(recovered ...wal.Cursor) *fakeDurable {
	return &fakeDurable{recovered: recovered, cursorCh: make(chan wal.Cursor, 256)}
}

func (d *fakeDurable) AppendSynced(_ []wal.Record, synced func(error)) error {
	d.synced.Add(1)
	synced(nil)
	return nil
}

func (d *fakeDurable) Replay(apply func(wal.Record) error) error {
	for _, r := range d.log {
		if err := apply(r); err != nil {
			return err
		}
	}
	return nil
}

func (d *fakeDurable) AppendCursor(c wal.Cursor) error      { d.cursorCh <- c; return nil }
func (d *fakeDurable) Cursors() []wal.Cursor                { return d.recovered }
func (d *fakeDurable) Append(...wal.Record) error           { return nil }
func (d *fakeDurable) Epoch() uint64                        { return 0 }
func (d *fakeDurable) SetEpoch(uint64) error                { return nil }
func (d *fakeDurable) SetSnapshotSource(wal.SnapshotSource) {}

// failOnce fails its first append, as a poisoned log would, and syncs the
// rest.
type failOnce struct {
	*fakeDurable
	failed atomic.Bool
}

func (d *failOnce) AppendSynced(recs []wal.Record, synced func(error)) error {
	if d.failed.CompareAndSwap(false, true) {
		return errors.New("disk full")
	}
	return d.fakeDurable.AppendSynced(recs, synced)
}

// holdSynced returns every append once written, as SyncBackground does, and
// hands its synced callback to the test instead of firing it.
type holdSynced struct {
	*fakeDurable
	held chan func(error)
}

func (d *holdSynced) AppendSynced(_ []wal.Record, synced func(error)) error {
	d.held <- synced
	return nil
}

// cutServer is a bare server with one replication queue, for driving the
// commit watermark and the cut by hand.
func cutServer(c hlc.Clock) (*Server, *repQueue) {
	s := &Server{cfg: Config{NumDCs: 1}, clock: c}
	s.wm.cond.L = &s.wm.mu
	q := &repQueue{s: s}
	s.queues = []*repQueue{q}
	return s, q
}

// durableServer is an unstarted one-partition server in DC 0 of two, on a
// Lamport clock, logging to dur, with a client; the test cuts its
// replication queue by hand.
func durableServer(t *testing.T, dur wal.Durability) (*Server, *Client) {
	t.Helper()
	net := transport.NewLocal(transport.LatencyModel{})
	t.Cleanup(func() { net.Close() })
	s, err := NewServer(Config{NumDCs: 2, Clock: ClockLogical, Durable: dur}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dial(t, ClientConfig{DC: 0, ID: 1, NumDCs: 2, Ring: ring.New(1), Mode: OneAndHalfRounds}, net)
}

// TestCutReadsUndurableHeadOnce: a cut whose oldest queued update is still
// unfinished ships nothing and clamps below it, even past a finished later
// update (k == 0 must never reach batch[k-1]); once the head finishes, the
// next cut ships both.
func TestCutReadsUndurableHeadOnce(t *testing.T) {
	s, st := cutServer(hlc.NewLamport(20))
	s.wm.pending = []pendingPut{{ts: 10}} // 11 has finished
	st.queue = []wire.Update{{Key: "a", TS: 10}, {Key: "b", TS: 11}}
	batch, high := st.cut()
	if len(batch) != 0 || high != 9 {
		t.Fatalf("cut at an unfinished head = %d updates, HighTS %d; want none, clamped to 9", len(batch), high)
	}
	s.finish(10, true)
	batch, high = st.cut()
	if len(batch) != 2 || batch[0].TS != 10 || high != 19 {
		t.Fatalf("next cut = %d updates, HighTS %d; want both, cut just below the clock (19)", len(batch), high)
	}
}

// TestCutFullBatchCutsAtItsLastUpdate: a drain that stops only because the
// batch is full cuts at the last update shipped, not at the clock — one
// update past repBatchMax stays queued.
func TestCutFullBatchCutsAtItsLastUpdate(t *testing.T) {
	_, st := cutServer(hlc.NewLamport(1000))
	for i := range repBatchMax + 1 {
		st.queue = append(st.queue, wire.Update{TS: uint64(10 + i)})
	}
	last := uint64(10 + repBatchMax - 1)
	if batch, high := st.cut(); len(batch) != repBatchMax || high != last {
		t.Fatalf("full batch = %d updates, HighTS %d; want %d cut at %d", len(batch), high, repBatchMax, last)
	}
	if len(st.queue) != 1 {
		t.Fatalf("%d updates left queued, want 1", len(st.queue))
	}
}

// TestCutOfDrainedQueueStaysBelowNextPut: the cut of a drained queue must be
// strictly below every later PUT, also one ticked within the same
// microsecond. Cutting AT clock.Now() was not: an HLC's Now does not record
// its reading, so the next Tick on an unmoved source returned the HighTS
// already shipped, and with three DCs a version depending on that PUT could
// become visible one heartbeat before the PUT itself arrived. A cut that
// drained updates still covers the last of them.
func TestCutOfDrainedQueueStaysBelowNextPut(t *testing.T) {
	var src hlc.ManualSource
	src.Set(1000)
	s, st := cutServer(hlc.NewHLC(src.Now))
	_, high := st.cut()
	u := wire.Update{DV: vclock.New(1)}
	s.begin(&u)
	if u.TS <= high {
		t.Fatalf("PUT after an empty cut got ts %d, not above the shipped HighTS %d", u.TS, high)
	}
	s.finish(u.TS, true)
	if batch, high := st.cut(); len(batch) != 1 || high != u.TS {
		t.Fatalf("cut after that PUT = %d updates, HighTS %d; want it shipped and covered (%d)", len(batch), high, u.TS)
	}
	if next := s.clock.Tick(); next <= u.TS {
		t.Fatalf("next PUT got ts %d, not above %d", next, u.TS)
	}
}

// TestFailedAppendNeverVisible: a PUT whose WAL append fails is answered
// 500, is never readable — not even by a snapshot covering its timestamp —
// and never holds the replication cut back: the next cut ships the PUT
// after it and moves past the failed timestamp.
func TestFailedAppendNeverVisible(t *testing.T) {
	s, cli := durableServer(t, &failOnce{fakeDurable: newFakeDurable()})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var re *wire.ErrorResp
	if _, err := cli.Put(ctx, "k", []byte("lost")); !errors.As(err, &re) || re.Code != 500 {
		t.Fatalf("PUT on a failing log = %v, want a 500", err)
	}
	failed := s.clock.Now() // a Lamport clock: the failed PUT was its last event
	kvs, err := cli.ROT(ctx, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if cli.Seen()[0] < failed {
		t.Fatalf("ROT snapshot %v does not cover the failed PUT's ts %d", cli.Seen(), failed)
	}
	if kvs[0].Value != nil {
		t.Fatalf("ROT read %q (ts %d) written by the failed PUT", kvs[0].Value, kvs[0].TS)
	}
	ts, err := cli.Put(ctx, "k2", []byte("kept"))
	if err != nil {
		t.Fatal(err)
	}
	batch, high := s.queues[0].cut()
	if len(batch) != 1 || batch[0].TS != ts || high < ts {
		t.Fatalf("cut after the failed PUT (ts %d) = %v, HighTS %d; want only ts %d, cut at or past it", failed, batch, high, ts)
	}
}

// TestUnsyncedPutBlocksCoveringRead: a PUT acknowledged before its fsync (as
// SyncBackground acks) stays invisible and unshipped until the fsync lands.
// A ROT whose snapshot covers it waits, then reads it; the replication cut
// stays below it, then ships it.
func TestUnsyncedPutBlocksCoveringRead(t *testing.T) {
	dur := &holdSynced{fakeDurable: newFakeDurable(), held: make(chan func(error), 1)}
	s, cli := durableServer(t, dur)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ts, err := cli.Put(ctx, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	synced := <-dur.held
	released := false
	defer func() {
		if !released {
			synced(wal.ErrClosed)
		}
	}()
	st := s.queues[0]
	if batch, high := st.cut(); len(batch) != 0 || high >= ts {
		t.Fatalf("cut before the fsync = %d updates, HighTS %d; want none, below ts %d", len(batch), high, ts)
	}
	type result struct {
		kvs []wire.KV
		err error
	}
	got := make(chan result, 1)
	go func() {
		kvs, err := cli.ROT(ctx, []string{"k"}) // covers ts: the client saw its own PUT
		got <- result{kvs, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("covering ROT returned %v, %v before the PUT's fsync", r.kvs, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	released = true
	synced(nil)
	r := <-got
	if r.err != nil || string(r.kvs[0].Value) != "v" || r.kvs[0].TS != ts {
		t.Fatalf("covering ROT after the fsync = %v, %v; want v at ts %d", r.kvs, r.err, ts)
	}
	if batch, high := st.cut(); len(batch) != 1 || batch[0].TS != ts || high < ts {
		t.Fatalf("cut after the fsync = %v, HighTS %d; want ts %d shipped and covered", batch, high, ts)
	}
}

// TestRecoveredTailResentAboveEachCursor: a recovering partition re-ships to
// each DC exactly the recovered local updates above that DC's cursor, once,
// and nothing at or below it; the ack of each non-empty batch appends that
// DC's cursor at the batch's HighTS.
func TestRecoveredTailResentAboveEachCursor(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()
	dur := newFakeDurable(wal.Cursor{DstDC: 1, HighTS: 20}, wal.Cursor{DstDC: 2, HighTS: 5})
	for _, ts := range []uint64{20, 10, 30} { // replay is append order, not timestamp order
		dur.log = append(dur.log, wal.Record{Key: "k", TS: ts, DV: vclock.Vec{ts, 0, 0}})
	}
	type shipped struct {
		dc   int
		ts   []uint64
		high uint64
	}
	got := make(chan shipped, 64)
	for dc := 1; dc <= 2; dc++ {
		if _, err := net.Attach(wire.ServerAddr(dc, 0), transport.HandlerFunc(
			func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
				if b, ok := m.(*wire.RepBatch); ok && len(b.Ups) > 0 {
					sh := shipped{dc: dc, high: b.HighTS}
					for _, u := range b.Ups {
						sh.ts = append(sh.ts, u.TS)
					}
					got <- sh
				}
				_ = n.Respond(src, reqID, &wire.RepAck{})
			})); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewServer(Config{NumDCs: 3, Durable: dur, RepFlushEvery: time.Millisecond}, net)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	want := map[int][]uint64{1: {30}, 2: {10, 20, 30}}
	high := map[int]uint64{}
	for range 2 {
		select {
		case sh := <-got:
			if !slices.Equal(sh.ts, want[sh.dc]) || high[sh.dc] != 0 {
				t.Fatalf("DC%d was re-sent %v (already sent at HighTS %d), want %v once", sh.dc, sh.ts, high[sh.dc], want[sh.dc])
			}
			high[sh.dc] = sh.high
		case <-time.After(5 * time.Second):
			t.Fatalf("recovered tail not re-shipped to every DC: got HighTS %v", high)
		}
	}
	for range 2 {
		select {
		case c := <-dur.cursorCh:
			if c.HighTS != high[int(c.DstDC)] {
				t.Fatalf("cursor %+v, want DC%d's at its batch's HighTS %d", c, c.DstDC, high[int(c.DstDC)])
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an acked non-empty batch appended no cursor")
		}
	}
	select {
	case sh := <-got:
		t.Fatalf("DC%d was sent %v after the tail was acked", sh.dc, sh.ts)
	case <-time.After(20 * time.Millisecond): // a score of heartbeats
	}
}
