package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
	"repro/internal/wire"
)

// newTicker wraps time.NewTicker, flooring the period at a safe minimum.
func newTicker(d time.Duration) *time.Ticker {
	if d < 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	return time.NewTicker(d)
}

// replicator ships this partition's local PUTs to its sibling replicas in
// every other DC.
//
// Queues are appended inside the server's put fence (putMu) and drained
// inside it too, so the replication cut — the HighTS a batch carries — is
// exact: every local version with ts ≤ HighTS is in this or an earlier
// batch. The receiver advances its VV[src] to HighTS, and through the
// stabilization protocol that entry flows into the GSS; an over-advanced
// cut would let remote readers observe snapshots missing local versions,
// which is precisely the anomaly the paper's Figure 1 illustrates.
//
// An empty batch with a fresh cut is the replication heartbeat of Section 4
// that keeps remote VVs moving while a partition is idle.
type replicator struct {
	s       *Server
	streams []*repStream
	wg      sync.WaitGroup // the started streams' run loops
}

// repUpdate is one queued update plus its durability gate: nil means the
// update needs no fsync (in-memory server), otherwise the flag flips true
// once the origin's WAL append has committed. Replication ships only
// durable updates — a write the origin could still lose in a crash must
// never be durably applied at a remote DC, or the replicas diverge the
// moment the origin recovers without it.
type repUpdate struct {
	wire.Update
	durable durFlag
}

// durFlag is the read side of an update's durability flag: an *atomic.Bool in the
// server; tests script one to pin down WHEN the flag is read.
type durFlag interface{ Load() bool }

func (u *repUpdate) ready() bool { return u.durable == nil || u.durable.Load() }

type repStream struct {
	s     *Server
	dst   wire.Addr
	dstDC int
	// seq is the last sequence this stream used; seeded from the durable
	// cursor so a restarted sender resumes exactly where the receiver's
	// dedup expects it (see ROADMAP: this replaced the wall-clock base).
	seq uint64

	queue []repUpdate // guarded by s.putMu

	ctx    context.Context // cancelled on stop so in-flight calls abort
	cancel context.CancelFunc
	stop   chan struct{}
}

// newReplicator builds one stream per remote DC. recovered holds this
// partition's WAL-recovered local updates in timestamp order; each stream
// is seeded with its durable cursor and re-enqueues the recovered updates
// the cursor says that DC has not acknowledged — the tail a crash stranded
// between local fsync and remote delivery.
func newReplicator(s *Server, recovered []wire.Update) *replicator {
	cursors := make(map[int]wal.Cursor)
	if s.cfg.Durable != nil {
		for _, c := range s.cfg.Durable.Cursors() {
			cursors[int(c.DstDC)] = c
		}
	}
	r := &replicator{s: s}
	for dc := 0; dc < s.cfg.NumDCs; dc++ {
		if dc == s.cfg.DC {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		st := &repStream{
			s:      s,
			dst:    wire.ServerAddr(dc, s.cfg.Part),
			dstDC:  dc,
			seq:    cursors[dc].Seq,
			ctx:    ctx,
			cancel: cancel,
			stop:   make(chan struct{}),
		}
		for _, u := range recovered {
			if u.TS > cursors[dc].HighTS {
				// Recovered from the WAL, so durable by definition: no gate.
				st.queue = append(st.queue, repUpdate{Update: u})
			}
		}
		r.streams = append(r.streams, st)
	}
	return r
}

func (r *replicator) start() {
	for _, st := range r.streams {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			st.run()
		}()
	}
}

// stopAll aborts in-flight calls and waits for the streams that were
// started; on a replicator that never was, it returns at once.
func (r *replicator) stopAll() {
	for _, st := range r.streams {
		close(st.stop)
		st.cancel()
	}
	r.wg.Wait()
}

// enqueue records one local update for every remote DC. The caller must
// hold s.putMu (it is called from the PUT fence). durable is the update's
// durability gate (nil when the server has no WAL).
func (r *replicator) enqueue(u wire.Update, durable *atomic.Bool) {
	ru := repUpdate{Update: u}
	if durable != nil { // a nil *atomic.Bool must stay a nil flag, not a non-nil interface
		ru.durable = durable
	}
	for _, st := range r.streams {
		st.queue = append(st.queue, ru)
	}
}

// cut drains up to repBatchMax queued DURABLE updates and computes the
// replication cut. Draining stops at the first update whose WAL append has
// not committed yet, and the cut is clamped below that update's timestamp:
// updates are enqueued in timestamp order inside the fence, so everything
// below the clamp is in this or an earlier batch, and nothing the origin
// could still lose is ever shipped. A fully drained queue cuts just BELOW
// the current clock reading (enqueueing is atomic with timestamp assignment
// under putMu, and no later event is timestamped below a reading) — not at
// it: Now() creates no event, so an HLC does not record what it returned and
// a PUT entering the fence in the same microsecond gets that very timestamp.
//
// Each gate is read ONCE: a gate can flip durable at any instant (the WAL's
// commit path does not take putMu), so whether the drain stopped at an
// undurable head is decided by where the loop stopped, never by asking the
// head again — a second answer of "durable now" used to fall through to
// batch[k-1] with k == 0.
func (st *repStream) cut() ([]wire.Update, uint64) {
	st.s.putMu.Lock()
	defer st.s.putMu.Unlock()
	n := min(len(st.queue), repBatchMax)
	k := 0
	for k < n && st.queue[k].ready() {
		k++
	}
	batch := make([]wire.Update, k)
	for i := range batch {
		batch[i] = st.queue[i].Update
	}
	st.queue = st.queue[k:]
	if len(st.queue) == 0 {
		st.queue = nil // release the drained backing array eventually
		high := max(st.s.clock.Now(), 1) - 1
		if k > 0 {
			high = max(high, batch[k-1].TS) // the reading may BE the last update's event
		}
		return batch, high
	}
	if k < n {
		// Blocked on an in-flight (or failed) group commit: the cut must
		// stay strictly below the head that read undurable so remote
		// snapshots never cover a version that might not survive the
		// origin. (If it has turned durable since, the next cut ships it.)
		return batch, st.queue[0].TS - 1
	}
	return batch, batch[k-1].TS // k == n ≥ 1: the batch filled up
}

func (st *repStream) run() {
	// st.seq resumes from the durable cursor (zero without a WAL), so a
	// recovered sender continues exactly where the receiver's dedup cursor
	// expects. Receivers no longer trust sequence alone: a batch is dropped
	// as a duplicate only when its sequence is stale AND its HighTS is
	// covered by the receiver's version vector, which makes sequence
	// discontinuities across restarts (heartbeat sequences are not
	// persisted) safe in both directions.
	flush := newTicker(st.s.cfg.RepFlushEvery)
	defer flush.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-flush.C:
		}
		for {
			batch, high := st.cut()
			st.seq++
			acked := st.deliver(&wire.RepBatch{
				SrcDC:   uint8(st.s.cfg.DC),
				SrcPart: uint32(st.s.cfg.Part),
				Seq:     st.seq,
				HighTS:  high,
				Ups:     batch,
			})
			// Persist the acknowledged frontier — but only for batches that
			// carried updates: heartbeats advance the cut every few
			// milliseconds and journaling each would turn an idle system
			// into constant fsync traffic. A stale cursor only means the
			// recovered sender re-ships an acknowledged suffix, which the
			// receiver detects and drops.
			if acked && len(batch) > 0 && st.s.cfg.Durable != nil {
				_ = st.s.cfg.Durable.AppendCursor(wal.Cursor{
					DstDC: uint8(st.dstDC), Seq: st.seq, HighTS: high,
				})
			}
			// Keep draining without waiting for the ticker while there is
			// backlog; an idle queue returns to heartbeat pacing.
			if !acked || len(batch) < repBatchMax {
				break
			}
		}
	}
}

// deliver retries the batch until acknowledged (true) or the stream stops.
func (st *repStream) deliver(msg *wire.RepBatch) bool {
	for {
		ctx, cancel := context.WithTimeout(st.ctx, repRetryTimeout)
		resp, err := st.s.Node.Call(ctx, st.dst, msg)
		cancel()
		if err == nil {
			if _, ok := resp.(*wire.RepAck); ok {
				return true
			}
		}
		if st.ctx.Err() != nil {
			return false
		}
		select {
		case <-st.stop:
			return false
		case <-time.After(10 * time.Millisecond):
		}
	}
}
