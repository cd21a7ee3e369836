package family

import (
	"context"
	"errors"
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
	r := newUpdateStreams(node, 0, 0, 2, dur, nil)
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
	r := newUpdateStreams(node, 0, 0, 2, dur, nil)
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

// TestTrackedNeverAckedPinsFrontier: a timestamp that was tracked but whose
// update never shipped (its put failed after Track) holds the frontier
// below it, whatever is acknowledged above.
func TestTrackedNeverAckedPinsFrontier(t *testing.T) {
	node := newFakeNode(ackAll)
	dur := newFakeDurable()
	r := newUpdateStreams(node, 0, 0, 2, dur, nil)
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
	r := newUpdateStreams(node, 0, 0, 2, dur, nil)
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
// endless run of errors ends only with ctx, and deliver says it failed.
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
	if !deliver(context.Background(), sender, wire.ServerAddr(1, 0), update(1), time.Second) {
		t.Fatal("deliver gave up under a live context")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("acked after %d attempts, want 3 (an ErrorResp and a Busy retried, then the ack)", got)
	}

	ackFrom.Store(1 << 30)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if deliver(ctx, sender, wire.ServerAddr(1, 0), update(2), time.Second) {
		t.Fatal("deliver reported an ack the receiver never sent")
	}
}

// TestStopWithoutStart: stopping a replicator that was never started
// returns at once (a server closed on its builder's error path).
func TestStopWithoutStart(t *testing.T) {
	r := newUpdateStreams(newFakeNode(ackAll), 0, 0, 3, nil, nil)
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
	r := newUpdateStreams(node, 1, 0, 3, nil, nil)
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

// stopAndWait is a window-of-one source like core's batch cut: message i
// covers i, except that every third one is a heartbeat covering nothing.
// Next fails the test if the previous message's cursor is not yet persisted
// when it is asked for the next one.
type stopAndWait struct {
	t       *testing.T
	dur     *fakeDurable
	n, i    uint64
	covered []uint64 // what messages 1..i covered
}

func (s *stopAndWait) Next(ctx context.Context) (wire.Message, uint64, bool) {
	if got := len(s.dur.cursorCh); got != len(s.covered) {
		s.t.Errorf("asked for message %d with %d cursors persisted, want %d", s.i+1, got, len(s.covered))
	}
	if s.i == s.n {
		<-ctx.Done()
		return nil, 0, false
	}
	s.i++
	covers := s.i
	if s.i%3 == 0 {
		covers = 0
	} else {
		s.covered = append(s.covered, covers)
	}
	return &wire.RepBatch{HighTS: s.i}, covers, true
}

// TestStopAndWaitPersistsEveryCover: through a durable Replicator with a
// window of one, each ack that covers a timestamp persists it as the
// cursor, before the next message is asked for; a heartbeat's ack persists
// nothing.
func TestStopAndWaitPersistsEveryCover(t *testing.T) {
	const n = 3000
	node := newFakeNode(ackAll)
	node.calls = make(chan call, n)
	dur := newFakeDurable()
	dur.cursorCh = make(chan wal.Cursor, n)
	src := &stopAndWait{t: t, dur: dur, n: n}
	r := NewReplicator(node, 0, 0, 2, dur, 1, time.Second, func(uint64) (Source, []uint64) { return src, nil })
	r.Start()
	for range n {
		node.nextCall(t)
	}
	r.Stop()
	got := dur.cursors()
	if len(got) != len(src.covered) {
		t.Fatalf("%d cursors persisted, want %d", len(got), len(src.covered))
	}
	for i, c := range got {
		if c.DstDC != 1 || c.HighTS != src.covered[i] {
			t.Fatalf("cursor %d = %+v, want DC1 at %d", i, c, src.covered[i])
		}
	}
}
