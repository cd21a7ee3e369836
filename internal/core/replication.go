package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/family"
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
// Queues are appended and drained under the server's commit watermark, so
// the replication cut — the HighTS a batch carries — is exact: every local
// version with ts ≤ HighTS is in this or an earlier batch, and none is one
// the origin could still lose. The receiver advances its VV[src] to HighTS,
// and through the stabilization protocol that entry flows into the GSS; an
// over-advanced cut would let remote readers observe snapshots missing
// local versions, which is precisely the anomaly the paper's Figure 1
// illustrates.
//
// An empty batch with a fresh cut is the replication heartbeat of Section 4
// that keeps remote VVs moving while a partition is idle.
type replicator struct {
	streams []*repStream
	ctx     context.Context // cancelled on stop so in-flight calls abort
	cancel  context.CancelFunc
	wg      sync.WaitGroup // the started streams' run loops
}

type repStream struct {
	s     *Server
	dst   wire.Addr
	dstDC int

	queue []wire.Update // in timestamp order; guarded by s.wm.mu
}

// newReplicator builds one stream per remote DC. recovered holds this
// partition's WAL-recovered local updates in timestamp order; each stream
// re-enqueues the recovered updates its durable cursor says that DC has
// not acknowledged — the tail a crash stranded between local fsync and
// remote delivery.
func newReplicator(s *Server, recovered []wire.Update) *replicator {
	acked := family.Acked(s.cfg.Durable, s.cfg.NumDCs)
	r := &replicator{}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	for dc := 0; dc < s.cfg.NumDCs; dc++ {
		if dc == s.cfg.DC {
			continue
		}
		st := &repStream{s: s, dst: wire.ServerAddr(dc, s.cfg.Part), dstDC: dc}
		for _, u := range recovered {
			if u.TS > acked[dc] {
				st.queue = append(st.queue, u)
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
			st.run(r.ctx)
		}()
	}
}

// stopAll aborts in-flight calls and waits for the streams that were
// started; on a replicator that never was, it returns at once.
func (r *replicator) stopAll() {
	r.cancel()
	r.wg.Wait()
}

// cut drains up to repBatchMax queued updates and computes the replication
// cut. Only the prefix below the oldest unfinished PUT ships, and the cut is
// clamped below that PUT: every queued update beneath it is installed (a
// failed one has left the queue), and no later PUT is timestamped below it.
// With no PUT unfinished, a drained queue cuts just BELOW the current clock
// reading — not at it: Now() creates no event, so an HLC does not record
// what it returned and a PUT ticked in the same microsecond gets that very
// timestamp. A full batch cuts at its last update; the rest waits for the
// next cut.
func (st *repStream) cut() ([]wire.Update, uint64) {
	w := &st.s.wm
	w.mu.Lock()
	defer w.mu.Unlock()
	limit := uint64(math.MaxUint64)
	if len(w.pending) > 0 {
		limit = w.pending[0].ts
	}
	k := 0
	for k < min(len(st.queue), repBatchMax) && st.queue[k].TS < limit {
		k++
	}
	batch := slices.Clone(st.queue[:k])
	st.queue = st.queue[k:]
	if len(st.queue) == 0 {
		st.queue = nil // release the drained backing array eventually
	}
	switch {
	case k == repBatchMax:
		return batch, batch[k-1].TS
	case limit != math.MaxUint64:
		return batch, limit - 1
	}
	high := max(st.s.clock.Now(), 1) - 1
	if k > 0 {
		high = max(high, batch[k-1].TS) // the reading may BE the last update's event
	}
	return batch, high
}

// run ships a batch every flush tick, stop-and-wait: the next batch is cut
// only once the receiver has acknowledged this one, so a receiver whose VV
// reached a batch's HighTS holds every update at or below it.
func (st *repStream) run(ctx context.Context) {
	flush := newTicker(st.s.cfg.RepFlushEvery)
	defer flush.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-flush.C:
		}
		for {
			batch, high := st.cut()
			acked := family.Deliver(ctx, st.s.Node, st.dst, &wire.RepBatch{
				SrcDC:  uint8(st.s.cfg.DC),
				HighTS: high,
				Ups:    batch,
			}, repRetryTimeout)
			// Persist the acknowledged frontier — but only for batches that
			// carried updates: heartbeats advance the cut every few
			// milliseconds and journaling each would turn an idle system
			// into constant fsync traffic. A stale cursor only means the
			// recovered sender re-ships an acknowledged suffix, which the
			// receiver's VV already covers and it drops.
			if acked && len(batch) > 0 && st.s.cfg.Durable != nil {
				_ = st.s.cfg.Durable.AppendCursor(wal.Cursor{DstDC: uint8(st.dstDC), HighTS: high})
			}
			// Keep draining without waiting for the ticker while there is
			// backlog; an idle queue returns to heartbeat pacing.
			if !acked || len(batch) < repBatchMax {
				break
			}
		}
	}
}
