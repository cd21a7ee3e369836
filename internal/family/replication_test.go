package family

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
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
	select {
	case <-g.gate(c.m.(*wire.LoRepUpdate).TS):
		return &wire.RepAck{}, nil
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
		if want := (wal.Cursor{DstDC: 1, HighTS: 2}); c != want {
			t.Fatalf("cursor after the gap closed = %+v, want %+v", c, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no cursor persisted after the gap closed")
	}
}

// TestLostAckResendsSameUpdate: an attempt that fails (a lost ack looks the
// same to the sender) is retried with the same update until one is
// acknowledged; only then does the cursor move.
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
		return &wire.RepAck{}, nil
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
		if u := c.m.(*wire.LoRepUpdate); u.TS != 7 {
			t.Fatalf("attempt %d carries TS %d, want 7", i, u.TS)
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
// to each DC exactly the recovered updates above that DC's cursor, once,
// and nothing at or below it.
func TestRecoveredTailResentAboveEachCursor(t *testing.T) {
	node := newFakeNode(ackAll)
	dur := newFakeDurable(wal.Cursor{DstDC: 1, HighTS: 20}) // DC2 has acked nothing
	recovered := []*wire.LoRepUpdate{update(10), update(20), update(30)}
	r := NewWindowReplicator(node, 0, 3, 3, dur, recovered)
	// Each stream launches its queue in timestamp order, which is what sends
	// an update's same-partition dependencies no later than the update.
	for i, want := range [][]uint64{{30}, {10, 20, 30}} {
		var got []uint64
		for _, u := range r.streams[i].queued() {
			got = append(got, u.TS)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("stream to DC%d queued %v before Start, want %v", r.streams[i].dstDC, got, want)
		}
	}
	r.Start()

	sent := map[wire.Addr][]uint64{} // destination → TS (deliveries run concurrently, so sorted)
	for range 4 {
		c := node.nextCall(t)
		sent[c.dst] = append(sent[c.dst], c.m.(*wire.LoRepUpdate).TS)
	}
	for _, ts := range sent {
		slices.Sort(ts)
	}
	r.Stop()
	select {
	case c := <-node.calls:
		t.Fatalf("a recovered update was shipped twice: %+v to %v", c.m, c.dst)
	default:
	}
	if got, want := sent[wire.ServerAddr(1, 3)], []uint64{30}; !slices.Equal(got, want) {
		t.Fatalf("DC1 (cursor 20) was re-sent %v, want %v", got, want)
	}
	if got, want := sent[wire.ServerAddr(2, 3)], []uint64{10, 20, 30}; !slices.Equal(got, want) {
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
	within(t, time.Second, "Enqueue after Stop", func() { r.Enqueue(update(2)) })
}

// TestDeliverRetriesErrorAnswers: over a real carrier, an attempt the
// receiver answers with an error (a WAL failure's 500, an admission shed)
// is retried, never taken as the ack; the first plain answer is. An
// endless run of errors ends only with ctx, and Deliver says it failed.
func TestDeliverRetriesErrorAnswers(t *testing.T) {
	net := transport.NewLocal(transport.LatencyModel{})
	defer net.Close()
	var attempts, ackFrom atomic.Int32
	ackFrom.Store(3)
	if _, err := net.Attach(wire.ServerAddr(1, 0), transport.HandlerFunc(
		func(n transport.Node, src wire.From, reqID uint64, _ wire.Message) {
			switch a := attempts.Add(1); {
			case a >= ackFrom.Load():
				_ = n.Respond(src, reqID, &wire.RepAck{})
			case a%2 == 1:
				transport.RespondError(n, src, reqID, 500, "wal: disk full")
			default:
				_ = n.Respond(src, reqID, &wire.Busy{})
			}
		})); err != nil {
		t.Fatal(err)
	}
	sender, err := net.Attach(wire.ServerAddr(0, 0), transport.HandlerFunc(func(transport.Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	if !Deliver(context.Background(), sender, wire.ServerAddr(1, 0), update(1), time.Second) {
		t.Fatal("Deliver gave up under a live context")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("acked after %d attempts, want 3 (an ErrorResp and a Busy retried, then the ack)", got)
	}

	ackFrom.Store(1 << 30)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if Deliver(ctx, sender, wire.ServerAddr(1, 0), update(2), time.Second) {
		t.Fatal("Deliver reported an ack the receiver never sent")
	}
}

// TestStopWithoutStart: stopping a replicator that was never started
// returns at once (a server closed on its builder's error path).
func TestStopWithoutStart(t *testing.T) {
	r := NewWindowReplicator(newFakeNode(ackAll), 0, 0, 3, nil, nil)
	within(t, time.Second, "Stop on an unstarted replicator", r.Stop)
}

// TestEnqueueNeverBlocks: a put hands its update to the streams after it is
// durable and visible, so Enqueue must return at once however far behind a
// stream is — here every Call hangs until the WAN heals, far more updates are
// enqueued than the window and any buffer hold, and each one still reaches
// both siblings once the WAN answers.
func TestEnqueueNeverBlocks(t *testing.T) {
	healed := make(chan struct{})
	node := newFakeNode(func(ctx context.Context, c call) (wire.Message, error) {
		select {
		case <-healed:
			return &wire.RepAck{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	const n = 10000
	node.calls = make(chan call, 4*n) // every Call, with room for a retry of each, so none blocks
	r := NewWindowReplicator(node, 1, 0, 3, nil, nil)
	r.Start()
	defer r.Stop()
	within(t, 5*time.Second, "Enqueue behind a severed WAN", func() {
		for ts := uint64(1); ts <= n; ts++ {
			r.Enqueue(update(ts))
		}
	})
	close(healed)
	last := map[wire.Addr]uint64{}
	for range 2 * n {
		c := node.nextCall(t)
		last[c.dst] = max(last[c.dst], c.m.(*wire.LoRepUpdate).TS)
	}
	if len(last) != 2 || last[wire.ServerAddr(0, 0)] != n || last[wire.ServerAddr(2, 0)] != n {
		t.Fatalf("DC1's partition 0 shipped up to %v, want %d to its siblings in DC0 and DC2", last, n)
	}
}
