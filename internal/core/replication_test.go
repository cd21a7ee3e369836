package core

import (
	"testing"

	"repro/internal/hlc"
	"repro/internal/wire"
)

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
