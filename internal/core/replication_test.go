package core

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hlc"
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

// flipFlag reads undurable exactly once and durable ever after: a group
// commit landing between two looks at the same update.
type flipFlag struct{ loads int }

func (f *flipFlag) Load() bool {
	f.loads++
	return f.loads > 1
}

// TestCutReadsUndurableHeadOnce is the regression test for the
// `index out of range [-1]` panic in repStream.cut: the drain loop stopped at
// an undurable head (k == 0), the head turned durable before cut asked it a
// second time, and the "head is durable" branch indexed batch[k-1]. The cut
// must clamp below the head it read as undurable and ship it next time.
func TestCutReadsUndurableHeadOnce(t *testing.T) {
	s := &Server{clock: hlc.NewLamport(20)}
	head := &flipFlag{}
	st := &repStream{s: s, queue: []repUpdate{
		{Update: wire.Update{Key: "a", TS: 10}, durable: head},
		{Update: wire.Update{Key: "b", TS: 11}},
	}}
	batch, high := st.cut()
	if len(batch) != 0 || high != 9 {
		t.Fatalf("cut at an undurable head = %d updates, HighTS %d; want none, clamped to 9", len(batch), high)
	}
	if head.loads != 1 {
		t.Fatalf("cut read the head's flag %d times, want once", head.loads)
	}
	batch, high = st.cut()
	if len(batch) != 2 || batch[0].TS != 10 || high != 19 {
		t.Fatalf("next cut = %d updates, HighTS %d; want both, cut just below the clock (19)", len(batch), high)
	}
}

// TestCutFullBatchCutsAtItsLastUpdate: a drain that stops only because the
// batch is full cuts at the last update shipped, not at the clock — one
// update past repBatchMax stays queued.
func TestCutFullBatchCutsAtItsLastUpdate(t *testing.T) {
	s := &Server{clock: hlc.NewLamport(1000)}
	st := &repStream{s: s}
	for i := range repBatchMax + 1 {
		st.queue = append(st.queue, repUpdate{Update: wire.Update{TS: uint64(10 + i)}})
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
// strictly below every later PUT, also one that enters the fence within the
// same microsecond. Cutting AT clock.Now() was not: an HLC's Now does not
// record its reading, so the next Tick on an unmoved source returned the
// HighTS already shipped, and with three DCs a version depending on that PUT
// could become visible one heartbeat before the PUT itself arrived. A cut
// that drained updates still covers the last of them.
func TestCutOfDrainedQueueStaysBelowNextPut(t *testing.T) {
	var src hlc.ManualSource
	src.Set(1000)
	s := &Server{clock: hlc.NewHLC(src.Now)}
	st := &repStream{s: s}
	_, high := st.cut()
	ts := s.clock.Tick()
	if ts <= high {
		t.Fatalf("PUT after an empty cut got ts %d, not above the shipped HighTS %d", ts, high)
	}
	st.queue = []repUpdate{{Update: wire.Update{TS: ts}}}
	if batch, high := st.cut(); len(batch) != 1 || high != ts {
		t.Fatalf("cut after that PUT = %d updates, HighTS %d; want it shipped and covered (%d)", len(batch), high, ts)
	}
	if next := s.clock.Tick(); next <= ts {
		t.Fatalf("next PUT got ts %d, not above %d", next, ts)
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
