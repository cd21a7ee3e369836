package family

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wire"
)

// gatedAcks answers each replication Call only once the test releases its
// timestamp, so acknowledgments complete in the order the test chooses.
type gatedAcks struct {
	mu    sync.Mutex
	gates map[uint64]chan struct{}
}

func (g *gatedAcks) gate(ts uint64) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gates == nil {
		g.gates = make(map[uint64]chan struct{})
	}
	if g.gates[ts] == nil {
		g.gates[ts] = make(chan struct{})
	}
	return g.gates[ts]
}

func (g *gatedAcks) release(ts uint64) { close(g.gate(ts)) }

func (g *gatedAcks) onCall(ctx context.Context, c call) (wire.Message, error) {
	u := c.m.(*wire.LoRepUpdate)
	select {
	case <-g.gate(u.TS):
		return &wire.LoRepAck{Seq: u.Seq}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestCursorPersistedOnlyWhenFrontierMoves: acks complete out of order
// inside the window; an ack above an unacked update persists nothing, and
// the ack that closes the gap persists the frontier it opened. The window
// is the test's clock: with repWindow updates in flight the next one can
// launch only after a delivery has finished — cursor handling included.
func TestCursorPersistedOnlyWhenFrontierMoves(t *testing.T) {
	var acks gatedAcks
	node := newFakeNode(acks.onCall)
	dur := newFakeDurable()
	r := NewWindowReplicator(node, 0, 0, 2, dur, nil)
	r.Start()
	defer r.Stop()

	const extra = repWindow + 1
	for ts := uint64(1); ts <= extra; ts++ {
		r.Track(ts)
		r.Enqueue(update(ts))
	}
	for range repWindow {
		if ts := node.nextCall(t).m.(*wire.LoRepUpdate).TS; ts > repWindow {
			t.Fatalf("update %d launched with the window of %d already full", ts, repWindow)
		}
	}
	select {
	case c := <-node.calls:
		t.Fatalf("update %d launched beyond the window", c.m.(*wire.LoRepUpdate).TS)
	case <-time.After(50 * time.Millisecond):
	}

	// Ack 2 while 1 is outstanding: a slot frees (the last update launches)
	// but the frontier has not moved, so nothing is persisted.
	acks.release(2)
	if ts := node.nextCall(t).m.(*wire.LoRepUpdate).TS; ts != extra {
		t.Fatalf("freed slot launched update %d, want %d", ts, extra)
	}
	if got := dur.cursors(); len(got) != 0 {
		t.Fatalf("cursor persisted with update 1 unacked: %+v", got)
	}

	// Ack 1: the frontier jumps over both.
	acks.release(1)
	select {
	case c := <-dur.cursorCh:
		if want := (wal.Cursor{DstDC: 1, Seq: 2, HighTS: 2}); c != want {
			t.Fatalf("cursor after the gap closed = %+v, want %+v", c, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no cursor persisted after the gap closed")
	}
}

// TestLostAckResendsSameUpdate: an attempt that fails (a lost ack looks the
// same to the sender) is retried with the same update and the same Seq
// until one is acknowledged; only then does the cursor move.
func TestLostAckResendsSameUpdate(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	node := newFakeNode(func(_ context.Context, c call) (wire.Message, error) {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if attempts < 3 {
			return nil, errors.New("ack lost")
		}
		return &wire.LoRepAck{Seq: c.m.(*wire.LoRepUpdate).Seq}, nil
	})
	dur := newFakeDurable()
	r := NewWindowReplicator(node, 0, 0, 2, dur, nil)
	r.Start()
	defer r.Stop()
	r.Track(7)
	r.Enqueue(update(7))

	first := node.nextCall(t)
	for i := 2; i <= 3; i++ {
		c := node.nextCall(t)
		if c.m != first.m || c.dst != first.dst {
			t.Fatalf("attempt %d sent a different update or destination", i)
		}
		if u := c.m.(*wire.LoRepUpdate); u.Seq != 1 || u.TS != 7 {
			t.Fatalf("attempt %d carries Seq %d TS %d, want Seq 1 TS 7", i, u.Seq, u.TS)
		}
	}
	select {
	case c := <-dur.cursorCh:
		if c.HighTS != 7 {
			t.Fatalf("cursor %+v, want HighTS 7", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acknowledged update persisted no cursor")
	}
	select {
	case c := <-node.calls:
		t.Fatalf("update re-sent after its ack: %+v", c.m)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestRecoveredTailResentAboveEachCursor: a recovering partition re-ships
// to each DC exactly the recovered updates above that DC's cursor — once,
// in timestamp order — and nothing at or below it.
func TestRecoveredTailResentAboveEachCursor(t *testing.T) {
	node := newFakeNode(ackAll)
	dur := newFakeDurable(wal.Cursor{DstDC: 1, Seq: 20, HighTS: 20}) // DC2 has acked nothing
	recovered := []*wire.LoRepUpdate{update(10), update(20), update(30)}
	r := NewWindowReplicator(node, 0, 3, 3, dur, recovered)
	r.Start()

	sent := map[wire.Addr]map[uint64]uint64{} // destination → Seq → TS
	for range 4 {
		c := node.nextCall(t)
		u := c.m.(*wire.LoRepUpdate)
		if sent[c.dst] == nil {
			sent[c.dst] = map[uint64]uint64{}
		}
		sent[c.dst][u.Seq] = u.TS
	}
	r.Stop()
	select {
	case c := <-node.calls:
		t.Fatalf("a recovered update was shipped twice: %+v to %v", c.m, c.dst)
	default:
	}
	if got, want := sent[wire.ServerAddr(1, 3)], map[uint64]uint64{1: 30}; !mapsEqual(got, want) {
		t.Fatalf("DC1 (cursor 20) was re-sent %v, want %v", got, want)
	}
	if got, want := sent[wire.ServerAddr(2, 3)], map[uint64]uint64{1: 10, 2: 20, 3: 30}; !mapsEqual(got, want) {
		t.Fatalf("DC2 (no cursor) was re-sent %v, want %v", got, want)
	}
	// Every re-shipped update was tracked, so the acks move both frontiers
	// to the newest recovered timestamp.
	high := map[uint8]uint64{}
	for _, c := range dur.cursors() {
		high[c.DstDC] = max(high[c.DstDC], c.HighTS)
	}
	if high[1] != 30 || high[2] != 30 {
		t.Fatalf("frontiers after the re-ship = %v, want 30 for both DCs", high)
	}
}

func mapsEqual(a, b map[uint64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestTrackedNeverAckedPinsFrontier: a timestamp that was tracked but whose
// update never shipped (its put failed after Track) holds the frontier
// below it, whatever is acknowledged above.
func TestTrackedNeverAckedPinsFrontier(t *testing.T) {
	node := newFakeNode(ackAll)
	dur := newFakeDurable()
	r := NewWindowReplicator(node, 0, 0, 2, dur, nil)
	r.Start()
	r.Track(5)
	for _, ts := range []uint64{7, 9} {
		r.Track(ts)
		r.Enqueue(update(ts))
	}
	node.nextCall(t)
	node.nextCall(t)
	r.Stop() // waits for both deliveries, their cursor handling included
	if got := dur.cursors(); len(got) != 0 {
		t.Fatalf("cursor persisted past the pinned timestamp 5: %+v", got)
	}
}

// TestStopAbortsCallInFlight: Stop cancels a delivery blocked in Call and
// returns once it has unwound; the unacknowledged update moves no cursor.
func TestStopAbortsCallInFlight(t *testing.T) {
	aborted := make(chan error, 1)
	node := newFakeNode(func(ctx context.Context, _ call) (wire.Message, error) {
		<-ctx.Done()
		aborted <- ctx.Err()
		return nil, ctx.Err()
	})
	dur := newFakeDurable()
	r := NewWindowReplicator(node, 0, 0, 2, dur, nil)
	r.Start()
	r.Track(1)
	r.Enqueue(update(1))
	node.nextCall(t)
	within(t, 3*time.Second, "Stop with a Call in flight", r.Stop)
	select {
	case err := <-aborted:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("in-flight Call ended with %v, want context.Canceled", err)
		}
	default:
		t.Fatal("Stop returned with the Call still in flight")
	}
	if got := dur.cursors(); len(got) != 0 {
		t.Fatalf("aborted delivery persisted a cursor: %+v", got)
	}
	// Enqueue after Stop must not block on a stream nobody drains.
	within(t, time.Second, "Enqueue after Stop", func() {
		for range cap(r.streams[0].ch) + 1 {
			r.Enqueue(update(2))
		}
	})
}

// TestStopWithoutStart: stopping a replicator that was never started
// returns at once (a server closed on its builder's error path).
func TestStopWithoutStart(t *testing.T) {
	r := NewWindowReplicator(newFakeNode(ackAll), 0, 0, 3, nil, nil)
	within(t, time.Second, "Stop on an unstarted replicator", r.Stop)
}

// TestEnqueueCopiesPerStream: every stream stamps its own Seq, so each gets
// its own copy of the update and the caller's is left alone.
func TestEnqueueCopiesPerStream(t *testing.T) {
	node := newFakeNode(ackAll)
	r := NewWindowReplicator(node, 1, 0, 3, nil, nil)
	r.Start()
	defer r.Stop()
	u := update(4)
	r.Enqueue(u)
	a, b := node.nextCall(t), node.nextCall(t)
	if a.m == b.m || a.m == wire.Message(u) {
		t.Fatal("streams share one update: their Seq stamps would race")
	}
	if dsts := []wire.Addr{a.dst, b.dst}; !slices.Contains(dsts, wire.ServerAddr(0, 0)) || !slices.Contains(dsts, wire.ServerAddr(2, 0)) {
		t.Fatalf("DC1's partition 0 replicated to %v, want its siblings in DC0 and DC2", dsts)
	}
	if u.Seq != 0 {
		t.Fatal("Enqueue stamped the caller's update")
	}
}
