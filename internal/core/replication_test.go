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
	s := &Server{cfg: Config{RepBatchMax: 8}, clock: hlc.NewLamport(20)}
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
	if len(batch) != 2 || batch[0].TS != 10 || high != 20 {
		t.Fatalf("next cut = %d updates, HighTS %d; want both, cut at the clock (20)", len(batch), high)
	}
}

// TestCutFullBatchCutsAtItsLastUpdate: a drain that stops only because the
// batch is full cuts at the last update shipped, not at the clock.
func TestCutFullBatchCutsAtItsLastUpdate(t *testing.T) {
	s := &Server{cfg: Config{RepBatchMax: 2}, clock: hlc.NewLamport(20)}
	st := &repStream{s: s, queue: []repUpdate{
		{Update: wire.Update{TS: 10}}, {Update: wire.Update{TS: 11}}, {Update: wire.Update{TS: 12}},
	}}
	if batch, high := st.cut(); len(batch) != 2 || high != 11 {
		t.Fatalf("full batch = %d updates, HighTS %d; want 2 cut at 11", len(batch), high)
	}
}
