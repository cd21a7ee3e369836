package family

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// events is the ordered record of what the code under test did at its
// seams; the fakes append to it. before, when set, runs ahead of every
// append and may name something that has happened since the last one and
// leaves no call to hook (an update sitting in a stream's channel). A nil
// recorder records nothing.
type events struct {
	mu     sync.Mutex
	log    []string
	before func() string
}

func (e *events) add(format string, a ...any) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.before != nil {
		if ev := e.before(); ev != "" {
			e.log = append(e.log, ev)
		}
	}
	e.log = append(e.log, fmt.Sprintf(format, a...))
}

// list returns the events so far, less those named skip.
func (e *events) list(skip ...string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.DeleteFunc(slices.Clone(e.log), func(ev string) bool { return slices.Contains(skip, ev) })
}

// index returns the position of the first event equal to ev, or -1.
func (e *events) index(ev string) int { return slices.Index(e.list(), ev) }

// msgName is a message's type without the package, plus the code of an
// error response: "LoPutResp", "ErrorResp 500".
func msgName(m wire.Message) string {
	name := strings.TrimPrefix(fmt.Sprintf("%T", m), "*wire.")
	if e, ok := m.(*wire.ErrorResp); ok {
		name += fmt.Sprintf(" %d", e.Code)
	}
	return name
}

// call is one Call the code under test made on the fake node.
type call struct {
	dst wire.Addr
	m   wire.Message
}

// fakeNode is a scripted transport.Node: every Call is reported on calls
// and answered by onCall; every Respond is reported on responds; both are
// recorded on ev.
type fakeNode struct {
	ev       *events
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
	n.ev.add("call %s", msgName(m))
	n.calls <- c
	return n.onCall(ctx, c)
}

func (n *fakeNode) Respond(_ wire.From, _ uint64, m wire.Message) error {
	n.ev.add("respond %s", msgName(m))
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
func ackAll(context.Context, call) (wire.Message, error) { return &wire.RepAck{}, nil }

// fakeNet attaches everything to one fakeNode.
type fakeNet struct{ node *fakeNode }

func (n fakeNet) Attach(wire.Addr, transport.Handler) (transport.Node, error) { return n.node, nil }
func (n fakeNet) AttachMux(wire.Addr, int) (transport.Mux, error)             { return nil, errors.New("no mux") }
func (n fakeNet) Close() error                                                { return nil }

// fakeDurable is an in-memory wal.Durability: a recovered cursor table and
// log, on cursorCh every cursor appended since (sized so AppendCursor never
// blocks), and on ev the kinds of every synced append, in record order.
type fakeDurable struct {
	recovered []wal.Cursor
	cursorCh  chan wal.Cursor

	ev        *events
	appendErr error              // fails every synced append when set
	log       []wal.Record       // what Replay replays
	source    wal.SnapshotSource // what SetSnapshotSource registered
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

func (d *fakeDurable) AppendSynced(recs []wal.Record, synced func(error)) error {
	kinds := make([]string, len(recs))
	for i, r := range recs {
		kinds[i] = map[uint8]string{wal.RecInstall: "install", wal.RecReaders: "readers"}[r.Kind]
	}
	d.ev.add("append %s", strings.Join(kinds, ","))
	if d.appendErr != nil {
		return d.appendErr
	}
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

func (d *fakeDurable) Cursors() []wal.Cursor                    { return d.recovered }
func (d *fakeDurable) Append(...wal.Record) error               { return nil }
func (d *fakeDurable) Epoch() uint64                            { return 0 }
func (d *fakeDurable) SetEpoch(uint64) error                    { return nil }
func (d *fakeDurable) SetSnapshotSource(src wal.SnapshotSource) { d.source = src }

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
