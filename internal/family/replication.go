// Package family holds the protocol skeleton the families share: the code
// that is identical whichever visibility rule a family implements. Every
// partition server embeds a Partition — the one transport.Handler a family
// registers, which answers Ping, refuses unknown messages, vets replication
// sources, and times and records every op its family's dispatch reports —
// and every client embeds a Base, whose one ROT loop retries a family's
// single attempt. Every family ships through one Replicator, which
// owns the per-DC streams, windows, delivery and cursors; a family supplies
// each stream's Source. The dependency-list families (CC-LO, COPS) embed
// LoServer on top, which owns their commit path and recovery loop over
// update queues and the dependency waiter; the timestamp family (core)
// keeps its own commit watermark — the ordered list of unfinished PUTs
// that its snapshot reads and its batch cut wait on — though its write
// path follows LoServer's order (durable, then visible, then shipped). Every
// multi-partition round, a client's ROT legs or a server's checks, is one
// Fan: legs on goroutines, leg 0 on the caller, answers folded serially,
// the first error cancelling the rest; As types each leg's answer.
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

// Source is a family's queue of local writes for one remote DC. Next blocks
// until the next message is due and returns it with the timestamp its
// acknowledgment covers (zero: none), or false once ctx is done. The stream
// calls it from one goroutine once a window slot is free, so with a window
// of one only after the previous message was acknowledged.
type Source interface {
	Next(ctx context.Context) (m wire.Message, covers uint64, ok bool)
}

// Replicator ships a partition's local writes to its sibling replicas: one
// stream per remote DC, each drawing on its family's Source and keeping up
// to its window of messages in flight, each delivered until acknowledged.
// Families differ only in their sources, windows and attempt timeouts.
//
// Durability: each stream folds acks into its acknowledged frontier (a
// wal.CursorTracker) and persists the frontier as a replication cursor
// whenever it advances. The frontier treats timestamps it has never seen as
// acknowledged, so a source whose acks complete out of order must Track
// each timestamp before it can become durable; with a window of one the
// frontier is simply the last timestamp covered. Each source starts with
// the recovered local updates above its DC's cursor, so a crash between the
// local fsync and remote delivery does not strand the tail.
type Replicator struct {
	node    transport.Node
	durable wal.Durability // nil: in-memory streams keep no cursors
	timeout time.Duration  // bounds one delivery attempt
	streams []*stream

	ctx    context.Context // cancelled by Stop so in-flight calls abort
	cancel context.CancelFunc
	wg     sync.WaitGroup // the streams' run loops and their deliveries
}

type stream struct {
	r       *Replicator
	dst     wire.Addr
	dstDC   int
	src     Source
	tracker wal.CursorTracker
	sem     chan struct{} // window of messages in flight
}

// NewReplicator builds one stream per remote DC of partition part, with
// window messages in flight, each attempt bounded by timeout. source
// returns a remote DC's Source, given that DC's recovered cursor (see
// Acked), with the recovered timestamps it starts with that must be
// Tracked (none for a source whose acks cover all it shipped before).
func NewReplicator(node transport.Node, dc, part, numDCs int, durable wal.Durability, window int, timeout time.Duration, source func(acked uint64) (Source, []uint64)) *Replicator {
	acked := Acked(durable, numDCs)
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replicator{node: node, durable: durable, timeout: timeout, ctx: ctx, cancel: cancel}
	for dst := 0; dst < numDCs; dst++ {
		if dst == dc {
			continue
		}
		src, tracked := source(acked[dst])
		st := &stream{r: r, dst: wire.ServerAddr(dst, part), dstDC: dst, src: src, sem: make(chan struct{}, window)}
		for _, ts := range tracked {
			st.tracker.Enqueue(ts)
		}
		r.streams = append(r.streams, st)
	}
	return r
}

// Start launches the streams.
func (r *Replicator) Start() {
	for _, st := range r.streams {
		r.wg.Add(1)
		go st.run()
	}
}

// Stop aborts in-flight calls and returns once every stream goroutine has
// exited. On a replicator that was never started it returns at once.
func (r *Replicator) Stop() {
	r.cancel()
	r.wg.Wait()
}

// Track registers a local update's timestamp with every stream's frontier.
// It MUST run before the update's WAL append: a durable update the frontier
// has not seen could be skipped by the recovery re-enqueue if a crash lands
// between its fsync and its enqueue. A tracked update whose put then fails
// merely pins the frontier (stale cursors are safe: recovery re-ships more,
// receivers install idempotently).
func (r *Replicator) Track(ts uint64) {
	if r.durable == nil {
		return
	}
	for _, st := range r.streams {
		st.tracker.Enqueue(ts)
	}
}

// run delivers each message its source supplies in a window slot.
func (st *stream) run() {
	defer st.r.wg.Done()
	ctx := st.r.ctx
	for {
		select {
		case st.sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		m, covers, ok := st.src.Next(ctx)
		if !ok {
			return
		}
		st.r.wg.Add(1) // run still holds its own count, so Stop cannot have returned
		go func() {
			defer st.r.wg.Done()
			defer func() { <-st.sem }()
			if deliver(ctx, st.r.node, st.dst, m, st.r.timeout) {
				st.ackCursor(covers)
			}
		}()
	}
}

// ackCursor folds one acknowledgment into the frontier and persists the
// cursor when it advanced. Cursor write failures are ignored: a stale
// cursor only re-ships an acknowledged suffix on recovery, which receivers
// install idempotently.
func (st *stream) ackCursor(ts uint64) {
	if ts == 0 || st.r.durable == nil {
		return
	}
	if high, advanced := st.tracker.Ack(ts); advanced {
		_ = st.r.durable.AppendCursor(wal.Cursor{DstDC: uint8(st.dstDC), HighTS: high})
	}
}

// deliver calls dst with m, each attempt bounded by timeout, until one is
// answered without an error — the acknowledgment — and returns true; it
// returns false once ctx is done. An error answer (an ErrorResp, a Busy:
// the transport returns both as the Call's error) is retried like a lost
// one, since replicated data is idempotent at its receiver.
func deliver(ctx context.Context, node transport.Node, dst wire.Addr, m wire.Message, timeout time.Duration) bool {
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
