// Package family holds the protocol skeleton the families share: the code
// that is identical whichever visibility rule a family implements. Every
// partition server embeds a Partition — the one transport.Handler a family
// registers, which answers Ping, refuses unknown messages, vets replication
// sources, and times and records every op its family's dispatch reports —
// and every client embeds a Base, whose one ROT loop retries a family's
// single attempt. The dependency-list families (CC-LO, COPS) embed
// LoServer on top, which owns their commit path and recovery loop over the
// windowed replication stream and the dependency waiter; the timestamp
// family (core) keeps its own commit watermark — the ordered list of
// unfinished PUTs that its snapshot reads and its batch-cut replication
// stream wait on — which is a different discipline, though its write path
// follows LoServer's order (durable, then visible, then shipped); both
// streams share one delivery loop (Deliver) and one lookup of what each DC
// has acknowledged (Acked). Every multi-partition round, a client's ROT
// legs or a server's checks, is one Fan: legs on goroutines, leg 0 on the
// caller, answers folded serially, the first error cancelling the rest; As
// types each leg's answer.
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
	// (idempotent) update is retried; it masks WAN loss quickly, and covers a
	// receiver that waits out a dependency check before it acks.
	repRetryTimeout = 2 * time.Second
)

// Deliver is the delivery loop of both replication streams: it calls dst
// with m, each attempt bounded by timeout, until one is answered without an
// error — the acknowledgment — and returns true; it returns false once ctx
// is done. An error answer (an ErrorResp, a Busy: the transport returns
// both as the Call's error) is retried like a lost one, since replicated
// data is idempotent at its receiver.
func Deliver(ctx context.Context, node transport.Node, dst wire.Addr, m wire.Message, timeout time.Duration) bool {
	for {
		attempt, cancel := context.WithTimeout(ctx, timeout)
		_, err := node.Call(attempt, dst, m)
		cancel()
		if err == nil {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Acked returns, indexed by DC, the HighTS up to which each remote DC has
// durably acknowledged this partition's local updates: its replication
// cursor's, zero for a DC with no cursor, and all zero without a WAL.
func Acked(durable wal.Durability, numDCs int) []uint64 {
	acked := make([]uint64, numDCs)
	if durable == nil {
		return acked
	}
	for _, c := range durable.Cursors() {
		if int(c.DstDC) < numDCs {
			acked[c.DstDC] = c.HighTS
		}
	}
	return acked
}

// WindowReplicator ships a partition's local PUTs — with their dependency
// lists and whatever else the family put in the update — to its sibling
// replicas in the other DCs. Ordering is enforced by the receiver's
// dependency checks, not by stream sequencing, so each stream keeps a
// window of updates in flight. Its queue is unbounded: a put is durable and
// visible locally before it is enqueued, and causal consistency stays
// available under partition, so a severed WAN must never hold up a put.
//
// Durability: each stream tracks its acknowledged frontier — the highest
// timestamp below which every update has been acked — with a
// wal.CursorTracker (acks complete out of order inside the window) and
// persists it as a replication cursor. A recovering partition re-enqueues
// its recovered local updates above each stream's cursor, so a crash
// between the local fsync and remote delivery does not strand the tail.
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
	tracker wal.CursorTracker
	sem     chan struct{} // window of in-flight updates

	mu    sync.Mutex
	queue []*wire.LoRepUpdate // enqueued, not yet launched
	wake  chan struct{}       // holds a token once the queue has grown
}

// NewWindowReplicator builds one stream per remote DC of partition part,
// seeding each queue with the WAL-recovered local updates (timestamp order)
// its durable cursor says that DC has not acknowledged. Recovered updates
// re-ship exactly what their pre-crash enqueue carried; the receiver still
// runs its own checks before installing.
func NewWindowReplicator(node transport.Node, dc, part, numDCs int, durable wal.Durability, recovered []*wire.LoRepUpdate) *WindowReplicator {
	acked := Acked(durable, numDCs)
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
			sem:   make(chan struct{}, repWindow),
			wake:  make(chan struct{}, 1),
		}
		for _, u := range recovered {
			if u.TS > acked[dst] {
				if durable != nil {
					st.tracker.Enqueue(u.TS)
				}
				st.queue = append(st.queue, u)
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
// safe — recovery re-ships more, receivers install idempotently).
func (r *WindowReplicator) Track(ts uint64) {
	if r.durable == nil {
		return
	}
	for _, st := range r.streams {
		st.tracker.Enqueue(ts)
	}
}

// Enqueue hands one local update to every stream; it never blocks. The
// streams share u and only read it.
func (r *WindowReplicator) Enqueue(u *wire.LoRepUpdate) {
	for _, st := range r.streams {
		st.mu.Lock()
		st.queue = append(st.queue, u)
		st.mu.Unlock()
		select {
		case st.wake <- struct{}{}:
		default:
		}
	}
}

// run launches the queued updates in order, then waits for more.
func (st *windowStream) run() {
	defer st.r.wg.Done()
	for {
		st.mu.Lock()
		queued := st.queue
		st.queue = nil
		st.mu.Unlock()
		for _, u := range queued {
			if !st.launch(u) {
				return
			}
		}
		select {
		case <-st.r.ctx.Done():
			return
		case <-st.wake:
		}
	}
}

// launch claims a window slot and delivers in the background. Launch order
// preserves the property that an update's same-partition dependencies are
// sent no later than the update itself.
func (st *windowStream) launch(u *wire.LoRepUpdate) bool {
	select {
	case st.sem <- struct{}{}:
	case <-st.r.ctx.Done():
		return false
	}
	st.r.wg.Add(1) // run() still holds its own count, so Stop cannot have returned
	go func() {
		defer st.r.wg.Done()
		defer func() { <-st.sem }()
		if Deliver(st.r.ctx, st.r.node, st.dst, u, repRetryTimeout) {
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
		_ = st.r.durable.AppendCursor(wal.Cursor{DstDC: uint8(st.dstDC), HighTS: high})
	}
}
