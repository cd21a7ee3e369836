// Package family holds the protocol skeleton the families share: the code
// that is identical whichever visibility rule a family implements. Every
// partition server embeds a Partition — the one transport.Handler a family
// registers, which answers Ping, refuses unknown messages, vets replication
// sources, and times and records every op its family's dispatch reports —
// and every client embeds a Base, whose one ROT loop retries a family's
// single attempt. The dependency-list families (CC-LO, COPS) embed
// LoServer on top, which owns their commit path and recovery loop over the
// windowed replication stream and the dependency waiter; the timestamp
// family (core) keeps its own install-inside-the-fence write path, its
// durability gate and its batch-cut replication stream, which are
// different disciplines.
//
// Everything here is a concrete type a family calls directly. A family
// supplies its dispatch (a type switch that reports what each message did
// as an Op), its store and its own series; a dependency-list family also
// supplies its store adapter, whatever it runs before a commit, its ROT
// handlers, its client's ROT attempt and its snapshot emission. Nothing in
// this package knows which family is calling.
package family

import (
	"context"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

const (
	// repWindow is the number of replication updates in flight per remote
	// DC; receivers order installs by dependency checks, not sequencing.
	repWindow = 64
	// repRetryTimeout bounds one replication attempt before the
	// (idempotent) update is retried; it masks WAN loss quickly.
	repRetryTimeout = 2 * time.Second
)

// WindowReplicator ships a partition's local PUTs — with their dependency
// lists and whatever else the family put in the update — to its sibling
// replicas in the other DCs. Ordering is enforced by the receiver's
// dependency checks, not by stream sequencing, so each stream keeps a
// window of updates in flight.
//
// Durability: each stream tracks its acknowledged frontier — the highest
// timestamp below which every update has been acked — with a
// wal.CursorTracker (acks complete out of order inside the window) and
// persists it as a replication cursor. A recovering partition re-enqueues
// its recovered local updates above each stream's cursor, so a crash
// between the local fsync and remote delivery does not strand the tail.
// Window streams have no receiver-side sequence cursor, so the persisted
// Seq simply mirrors HighTS (both frontiers coincide).
type WindowReplicator struct {
	node    transport.Node
	durable wal.Durability // nil: in-memory streams keep no cursors
	streams []*windowStream

	ctx    context.Context // cancelled by Stop so in-flight calls abort
	cancel context.CancelFunc
	wg     sync.WaitGroup // the streams' run loops and their deliveries
}

type windowStream struct {
	r       *WindowReplicator
	dst     wire.Addr
	dstDC   int
	seq     uint64
	backlog []*wire.LoRepUpdate // recovered-but-unacked tail, sent before ch
	tracker wal.CursorTracker
	// ch buffers local PUTs between their install and their launch; 8192
	// absorbs a burst while the window is full without blocking handlePut.
	ch  chan *wire.LoRepUpdate
	sem chan struct{} // window of in-flight updates
}

// NewWindowReplicator builds one stream per remote DC of partition part,
// seeding each with the WAL-recovered local updates (timestamp order) its
// durable cursor says that DC has not acknowledged. Recovered updates
// re-ship exactly what their pre-crash enqueue carried; the receiver still
// runs its own checks before installing.
func NewWindowReplicator(node transport.Node, dc, part, numDCs int, durable wal.Durability, recovered []*wire.LoRepUpdate) *WindowReplicator {
	cursors := make(map[int]wal.Cursor)
	if durable != nil {
		for _, c := range durable.Cursors() {
			cursors[int(c.DstDC)] = c
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &WindowReplicator{node: node, durable: durable, ctx: ctx, cancel: cancel}
	for dst := 0; dst < numDCs; dst++ {
		if dst == dc {
			continue
		}
		st := &windowStream{
			r:     r,
			dst:   wire.ServerAddr(dst, part),
			dstDC: dst,
			ch:    make(chan *wire.LoRepUpdate, 8192),
			sem:   make(chan struct{}, repWindow),
		}
		for _, u := range recovered {
			if u.TS > cursors[dst].HighTS {
				cp := *u
				if durable != nil {
					st.tracker.Enqueue(cp.TS)
				}
				st.backlog = append(st.backlog, &cp)
			}
		}
		r.streams = append(r.streams, st)
	}
	return r
}

// Start launches the streams.
func (r *WindowReplicator) Start() {
	for _, st := range r.streams {
		r.wg.Add(1)
		go st.run()
	}
}

// Stop aborts in-flight calls and returns once every stream goroutine has
// exited. On a replicator that was never started it returns at once.
func (r *WindowReplicator) Stop() {
	r.cancel()
	r.wg.Wait()
}

// Track registers a local update's timestamp with every stream's
// ack-frontier tracker. It MUST run before the update's WAL append: the
// cursor frontier treats unknown timestamps as acknowledged, so a durable
// update the tracker has not seen could be skipped by the recovery
// re-enqueue if a crash lands between its fsync and its enqueue. A tracked
// update whose put then fails merely pins the frontier (stale cursors are
// safe — recovery re-ships more, receivers dedup).
func (r *WindowReplicator) Track(ts uint64) {
	if r.durable == nil {
		return
	}
	for _, st := range r.streams {
		st.tracker.Enqueue(ts)
	}
}

// Enqueue hands one local update to every stream.
func (r *WindowReplicator) Enqueue(u *wire.LoRepUpdate) {
	for _, st := range r.streams {
		// Per-stream copy: run() stamps Seq, and sharing one update across
		// streams would race their stamps.
		cp := *u
		select {
		case st.ch <- &cp:
		case <-r.ctx.Done():
		}
	}
}

func (st *windowStream) run() {
	defer st.r.wg.Done()
	for _, u := range st.backlog {
		if !st.launch(u) {
			return
		}
	}
	st.backlog = nil
	for {
		select {
		case <-st.r.ctx.Done():
			return
		case u := <-st.ch:
			if !st.launch(u) {
				return
			}
		}
	}
}

// launch stamps the update's sequence, claims a window slot, and delivers
// in the background. Launch order preserves the property that an update's
// same-partition dependencies are sent no later than the update itself.
func (st *windowStream) launch(u *wire.LoRepUpdate) bool {
	st.seq++
	u.Seq = st.seq
	select {
	case st.sem <- struct{}{}:
	case <-st.r.ctx.Done():
		return false
	}
	st.r.wg.Add(1) // run() still holds its own count, so Stop cannot have returned
	go func() {
		defer st.r.wg.Done()
		defer func() { <-st.sem }()
		if st.deliver(u) {
			st.ackCursor(u.TS)
		}
	}()
	return true
}

// ackCursor folds one acknowledgment into the frontier and persists the
// cursor when it advanced. Cursor write failures are ignored: a stale
// cursor only re-ships an acknowledged suffix on recovery, which receivers
// install idempotently.
func (st *windowStream) ackCursor(ts uint64) {
	if st.r.durable == nil {
		return
	}
	if high, advanced := st.tracker.Ack(ts); advanced {
		_ = st.r.durable.AppendCursor(wal.Cursor{
			DstDC: uint8(st.dstDC), Seq: high, HighTS: high,
		})
	}
}

// deliver retries the update until acknowledged (true) or the replicator
// stops.
func (st *windowStream) deliver(u *wire.LoRepUpdate) bool {
	for {
		ctx, cancel := context.WithTimeout(st.r.ctx, repRetryTimeout)
		resp, err := st.r.node.Call(ctx, st.dst, u)
		cancel()
		if err == nil {
			if _, ok := resp.(*wire.LoRepAck); ok {
				return true
			}
		}
		select {
		case <-st.r.ctx.Done():
			return false
		case <-time.After(10 * time.Millisecond):
		}
	}
}
