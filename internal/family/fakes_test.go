package family

import (
	"context"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wire"
)

// call is one Call the code under test made on the fake node.
type call struct {
	dst wire.Addr
	m   wire.Message
}

// fakeNode is a scripted transport.Node: every Call is reported on calls
// and answered by onCall; every Respond is reported on responds.
type fakeNode struct {
	onCall   func(ctx context.Context, c call) (wire.Message, error)
	calls    chan call         // sized for the busiest test, so Call never blocks on it
	responds chan wire.Message // likewise
}

func newFakeNode(onCall func(ctx context.Context, c call) (wire.Message, error)) *fakeNode {
	return &fakeNode{onCall: onCall, calls: make(chan call, 256), responds: make(chan wire.Message, 16)}
}

func (n *fakeNode) Addr() wire.Addr                      { return wire.ServerAddr(0, 0) }
func (n *fakeNode) Send(wire.Addr, wire.Message) error   { return nil }
func (n *fakeNode) SendTo(wire.From, wire.Message) error { return nil }
func (n *fakeNode) Close() error                         { return nil }

func (n *fakeNode) Call(ctx context.Context, dst wire.Addr, m wire.Message) (wire.Message, error) {
	c := call{dst: dst, m: m}
	n.calls <- c
	return n.onCall(ctx, c)
}

func (n *fakeNode) Respond(_ wire.From, _ uint64, m wire.Message) error {
	n.responds <- m
	return nil
}

// nextCall waits for the next Call the fake saw.
func (n *fakeNode) nextCall(t *testing.T) call {
	t.Helper()
	select {
	case c := <-n.calls:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no Call arrived within 5 s")
		return call{}
	}
}

// ackAll acknowledges every replication update at once.
func ackAll(_ context.Context, c call) (wire.Message, error) {
	return &wire.LoRepAck{Seq: c.m.(*wire.LoRepUpdate).Seq}, nil
}

// fakeDurable is an in-memory wal.Durability: a recovered cursor table and,
// on cursorCh, every cursor appended since (sized so AppendCursor never
// blocks).
type fakeDurable struct {
	recovered []wal.Cursor
	cursorCh  chan wal.Cursor
}

func newFakeDurable(recovered ...wal.Cursor) *fakeDurable {
	return &fakeDurable{recovered: recovered, cursorCh: make(chan wal.Cursor, 256)}
}

func (d *fakeDurable) AppendCursor(c wal.Cursor) error {
	d.cursorCh <- c
	return nil
}

// cursors drains the cursors appended so far.
func (d *fakeDurable) cursors() []wal.Cursor {
	var out []wal.Cursor
	for {
		select {
		case c := <-d.cursorCh:
			out = append(out, c)
		default:
			return out
		}
	}
}

func (d *fakeDurable) Cursors() []wal.Cursor                        { return d.recovered }
func (d *fakeDurable) Append(...wal.Record) error                   { return nil }
func (d *fakeDurable) AppendSynced([]wal.Record, func(error)) error { return nil }
func (d *fakeDurable) Epoch() uint64                                { return 0 }
func (d *fakeDurable) SetEpoch(uint64) error                        { return nil }
func (d *fakeDurable) Replay(func(wal.Record) error) error          { return nil }
func (d *fakeDurable) SetSnapshotSource(wal.SnapshotSource)         {}

func update(ts uint64) *wire.LoRepUpdate { return &wire.LoRepUpdate{Key: "k", TS: ts} }

// within fails the test unless f returns within d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %s", what, d)
	}
}
