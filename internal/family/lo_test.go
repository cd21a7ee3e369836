package family

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wire"
)

// loRig is partition (0, 0) of a 2-DC × 2-partition deployment built on the
// fakes: a durable LoServer whose node, log and store all record on ev. Its
// replication stream is never started, so an enqueued update stays in the
// stream's queue, where ev's probe and the tests can see it.
type loRig struct {
	ev   *events
	node *fakeNode
	dur  *fakeDurable
	srv  *LoServer

	mu   sync.Mutex
	have map[string]uint64 // newest installed timestamp per key

	own, other string // a key this partition owns, and one partition 1 owns
}

func newLoRig(t *testing.T, log ...wal.Record) *loRig {
	t.Helper()
	r := &loRig{ev: &events{}, have: make(map[string]uint64)}
	r.node = newFakeNode(func(_ context.Context, c call) (wire.Message, error) {
		if _, ok := c.m.(*wire.DepCheckReq); ok {
			return &wire.DepCheckResp{}, nil
		}
		return nil, fmt.Errorf("unexpected call %T", c.m)
	})
	r.node.ev = r.ev
	r.dur = newFakeDurable()
	r.dur.ev, r.dur.log = r.ev, log
	r.srv = NewLoServer("fam", 0, 0, 2, 2, r.dur, nil, LoStore{
		HasVersion: func(key string, ts uint64, _ uint8) bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.have[key] >= ts
		},
		Install: func(rec wal.Record, readers []wire.ReaderEntry) {
			r.ev.add("install %s@%d readers=%d", rec.Key, rec.TS, len(readers))
			r.mu.Lock()
			r.have[rec.Key] = max(r.have[rec.Key], rec.TS)
			r.mu.Unlock()
		},
		Snapshot: func(func(wal.Record) error) error { return nil },
		Seal:     func() { r.ev.add("seal") },
	})
	for i := 0; r.own == "" || r.other == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r.srv.Ring.Owner(k) == 0 {
			r.own = k
		} else {
			r.other = k
		}
	}
	return r
}

// attach finishes construction and arms the probe that notices an update
// entering the (single) replication stream.
func (r *loRig) attach(t *testing.T) {
	t.Helper()
	if err := r.srv.Attach(fakeNet{r.node}, nil); err != nil {
		t.Fatal(err)
	}
	seen := false
	r.ev.before = func() string {
		if !seen && len(r.srv.repl.queues[0].queued()) > 0 {
			seen = true
			return "enqueue"
		}
		return ""
	}
}

// queued returns what the queue holds that its stream has not launched yet.
func (q *updateQueue) queued() []*wire.LoRepUpdate {
	q.mu.Lock()
	defer q.mu.Unlock()
	return slices.Clone(q.queue)
}

// waiter blocks a dependency check on the first version of key and records
// "wake" when it clears. The wake runs on its own goroutine, concurrently
// with whatever the commit does after Installed; what a test can pin is that
// it happens, and only after the install.
func (r *loRig) waiter(key string) (woke chan struct{}) {
	woke = make(chan struct{})
	go func() {
		if r.srv.AwaitInstalled([]wire.LoDep{{Key: key, TS: 1}}) == nil {
			r.ev.add("wake")
		}
		close(woke)
	}()
	return woke
}

func (r *loRig) expect(t *testing.T, woke chan struct{}, installed string, want ...string) {
	t.Helper()
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("the commit never woke the blocked dependency check")
	}
	if got := r.ev.list("wake"); !reflect.DeepEqual(got, want) {
		t.Fatalf("events\n got: %q\nwant: %q", got, want)
	}
	if i, w := r.ev.index(installed), r.ev.index("wake"); w < i {
		t.Fatalf("dependency check woke before the install: %q", r.ev.list())
	}
}

var twoReaders = []wire.ReaderEntry{{RotID: 1<<32 | 4, T: 44}, {RotID: 2<<32 | 9, T: 50}}

// TestCommitLocalOrder: a local commit appends (reader record before the
// install record, in one append), installs, wakes dependency checks,
// enqueues and responds, in that order; the timestamp clears the floor and
// every dependency; what was persisted is what is installed and shipped.
// (Track-before-append is TestFailedAppendWithholds' last step.)
func TestCommitLocalOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		floor   uint64
		readers []wire.ReaderEntry
		wantTS  uint64
		append  string
	}{
		{"no pre-commit step (COPS)", 0, nil, 8, "append install"},
		{"a floor and old readers (CC-LO)", 50, twoReaders, 51, "append readers,install"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newLoRig(t)
			r.attach(t)
			woke := r.waiter(r.own)
			deps := []wire.LoDep{{Key: r.other, TS: 7, Src: 1}}
			op := r.srv.CommitLocal(wire.From{}, 1, &wire.LoPutReq{Key: r.own, Value: []byte("v"), Deps: deps}, tc.floor, tc.readers)

			installed := fmt.Sprintf("install %s@%d readers=%d", r.own, tc.wantTS, len(tc.readers))
			r.expect(t, woke, installed, tc.append, installed, "enqueue", "respond LoPutResp")
			if resp := (<-r.node.responds).(*wire.LoPutResp); resp.TS != tc.wantTS {
				t.Fatalf("acknowledged timestamp %d, want %d", resp.TS, tc.wantTS)
			}
			want := []*wire.LoRepUpdate{{SrcDC: 0, Key: r.own, Value: []byte("v"), TS: tc.wantTS, Deps: deps, OldReaders: tc.readers}}
			if u := r.srv.repl.queues[0].queued(); !reflect.DeepEqual(u, want) {
				t.Fatalf("enqueued %+v, want %+v", u, want)
			}
			if op.Kind != OpPut || op.Key != r.own || op.Commit.IsZero() {
				t.Fatalf("commit reported %+v, want a put of %s with its commit time", op, r.own)
			}
		})
	}
}

// TestCommitRemoteOrder: a replicated update's dependencies are checked
// first; then the record the family asked for is appended behind its reader
// record, installed under the ORIGIN timestamp, dependency checks wake, and
// the ack goes out last — and nothing is re-shipped.
func TestCommitRemoteOrder(t *testing.T) {
	r := newLoRig(t)
	r.attach(t)
	woke := r.waiter(r.own)
	m := &wire.LoRepUpdate{SrcDC: 1, Key: r.own, Value: []byte("v"), TS: 40,
		Deps: []wire.LoDep{{Key: r.other, TS: 7, Src: 1}}}
	if !r.srv.WaitDeps(wire.From{}, 1, m) {
		t.Fatal("WaitDeps failed with every dependency check answered")
	}
	op := r.srv.CommitRemote(wire.From{}, 1, m, wal.Record{Key: m.Key, Value: m.Value, TS: m.TS, SrcDC: m.SrcDC}, 60, twoReaders[:1])

	installed := fmt.Sprintf("install %s@40 readers=1", r.own)
	r.expect(t, woke, installed, "call DepCheckReq", "append readers,install", installed, "respond RepAck")
	<-r.node.responds
	if now := r.srv.Clock.Now(); now != 61 {
		t.Fatalf("clock at %d after an update at 40 with floor 60, want 61", now)
	}
	if op.Kind != OpRep || op.Key != r.own || op.Commit.IsZero() {
		t.Fatalf("commit reported %+v, want a replicated update of %s with its commit time", op, r.own)
	}
}

// TestFailedDepCheckWithholds: a dependency check that errors answers the
// origin 500 and WaitDeps says so; nothing is appended or installed.
func TestFailedDepCheckWithholds(t *testing.T) {
	r := newLoRig(t)
	r.attach(t)
	r.node.onCall = func(context.Context, call) (wire.Message, error) { return nil, errors.New("partition down") }
	m := &wire.LoRepUpdate{SrcDC: 1, Key: r.own, TS: 40, Deps: []wire.LoDep{{Key: r.other, TS: 7, Src: 1}}}
	if r.srv.WaitDeps(wire.From{}, 1, m) {
		t.Fatal("WaitDeps succeeded with the dependency's partition down")
	}
	if got, want := r.ev.list(), []string{"call DepCheckReq", "respond ErrorResp 500"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("events %q, want %q", got, want)
	}
}

// TestFailedAppendWithholds: when the WAL refuses the append, a local commit
// answers 500 and neither installs nor enqueues, and a remote commit answers
// 500 and neither installs nor acks. The failed PUT's timestamp was
// nevertheless tracked — Track runs before the append — so it pins the
// cursor frontier below itself whatever is acknowledged above it.
func TestFailedAppendWithholds(t *testing.T) {
	r := newLoRig(t)
	r.attach(t)
	r.dur.appendErr = errors.New("disk full")

	r.srv.CommitLocal(wire.From{}, 1, &wire.LoPutReq{Key: r.own, Value: []byte("v")}, 0, twoReaders)
	m := &wire.LoRepUpdate{SrcDC: 1, Key: r.own, TS: 40}
	r.srv.CommitRemote(wire.From{}, 2, m, wal.Record{Key: m.Key, TS: m.TS, SrcDC: m.SrcDC}, 0, nil)

	want := []string{"append readers,install", "respond ErrorResp 500", "append install", "respond ErrorResp 500"}
	if got := r.ev.list(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events\n got: %q\nwant: %q", got, want)
	}
	for range 2 {
		if e := (<-r.node.responds).(*wire.ErrorResp); e.Text != "fam: wal: disk full" {
			t.Fatalf("error text %q", e.Text)
		}
	}
	if r.srv.store.HasVersion(r.own, 1, 0) {
		t.Fatal("a version whose append failed is installed")
	}

	// The disk recovers; a later PUT commits, ships and is acknowledged.
	r.dur.appendErr = nil
	r.node.onCall = ackAll
	r.srv.CommitLocal(wire.From{}, 3, &wire.LoPutReq{Key: r.own, Value: []byte("v")}, 0, nil)
	r.srv.Start()
	r.node.nextCall(t)
	r.srv.repl.Stop() // waits for the delivery, its cursor handling included
	if got := r.dur.cursors(); len(got) != 0 {
		t.Fatalf("cursor persisted past the failed PUT's tracked timestamp: %+v", got)
	}
}

// TestReplay: recovery installs every install record, then seals the store,
// moves the clock past the newest recovered timestamp, keeps the LOCAL
// updates — timestamp order, dependency lists and recovered old readers
// attached — for the replicator, and hands every old-reader record to the
// family by version identity, orphans included (only the family's store can
// tell a version is gone). The snapshot source waits for Attach.
func TestReplay(t *testing.T) {
	deps := []wire.LoDep{{Key: "d", TS: 3, Src: 1}}
	r := newLoRig(t,
		wal.Record{Kind: wal.RecReaders, Key: "a", TS: 9, SrcDC: 0, Readers: twoReaders[:1]}, // ahead of its install
		wal.Record{Key: "a", Value: []byte("a9"), TS: 9, SrcDC: 0, Deps: deps},
		wal.Record{Key: "b", Value: []byte("b30"), TS: 30, SrcDC: 1},
		wal.Record{Key: "c", Value: []byte("c4"), TS: 4, SrcDC: 0},
		wal.Record{Kind: wal.RecReaders, Key: "a", TS: 9, SrcDC: 0, Readers: twoReaders[1:]},
		wal.Record{Kind: wal.RecReaders, Key: "gone", TS: 2, SrcDC: 1, Readers: twoReaders},
	)
	readers, err := r.srv.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.ev.list(), []string{"install a@9 readers=0", "install b@30 readers=0", "install c@4 readers=0", "seal"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("events %q, want %q", got, want)
	}
	if now := r.srv.Clock.Now(); now <= 30 {
		t.Fatalf("clock at %d after recovering timestamp 30", now)
	}
	wantReaders := map[wire.LoDep][]wire.ReaderEntry{
		{Key: "a", TS: 9, Src: 0}:    twoReaders,
		{Key: "gone", TS: 2, Src: 1}: twoReaders,
	}
	if !reflect.DeepEqual(readers, wantReaders) {
		t.Fatalf("reader records %+v, want %+v", readers, wantReaders)
	}
	wantLocal := []*wire.LoRepUpdate{
		{SrcDC: 0, Key: "c", Value: []byte("c4"), TS: 4},
		{SrcDC: 0, Key: "a", Value: []byte("a9"), TS: 9, Deps: deps, OldReaders: twoReaders},
	}
	if !reflect.DeepEqual(r.srv.recovered, wantLocal) {
		t.Fatalf("recovered local updates %+v, want %+v", r.srv.recovered, wantLocal)
	}
	if r.dur.source != nil {
		t.Fatal("snapshot source registered before the family finished recovering")
	}
	r.attach(t)
	if r.dur.source == nil {
		t.Fatal("Attach registered no snapshot source")
	}
	if got := len(r.srv.repl.queues[0].queued()); got != 2 {
		t.Fatalf("stream queue holds %d recovered updates, want 2", got)
	}

	// In memory there is nothing to replay.
	mem := NewLoServer("fam", 0, 0, 1, 1, nil, nil, LoStore{})
	if readers, err := mem.Replay(); readers != nil || err != nil {
		t.Fatalf("in-memory Replay = %v, %v", readers, err)
	}
}

// TestLoServerAnswersDepChecks: a dependency check reaches the waiter ahead
// of the family's dispatch, and everything else reaches the dispatch.
func TestLoServerAnswersDepChecks(t *testing.T) {
	r := newLoRig(t)
	var dispatched []wire.Message
	if err := r.srv.Attach(fakeNet{r.node}, func(_ wire.From, _ uint64, m wire.Message) (Op, bool) {
		dispatched = append(dispatched, m)
		return Op{}, true
	}); err != nil {
		t.Fatal(err)
	}
	r.srv.store.Install(wal.Record{Key: r.own, TS: 5}, nil)
	r.srv.Handle(nil, wire.From{}, 2, &wire.DepCheckReq{Deps: []wire.LoDep{{Key: r.own, TS: 5}}})
	if _, ok := (<-r.node.responds).(*wire.DepCheckResp); !ok {
		t.Fatal("dependency check on an installed version not answered")
	}
	r.srv.Handle(nil, wire.From{}, 3, &wire.LoPutReq{})
	if len(dispatched) != 1 {
		t.Fatalf("dispatch saw %d messages, want only the put", len(dispatched))
	}
	if _, ok := dispatched[0].(*wire.LoPutReq); !ok {
		t.Fatalf("dispatch saw %T, want the put", dispatched[0])
	}
}
