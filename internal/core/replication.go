package core

import (
	"context"
	"math"
	"slices"
	"time"

	"repro/internal/wire"
)

// repQueue is the source of one remote DC's replication stream
// (family.Replicator, with a window of one): the local PUTs not yet shipped
// there, cut into batches.
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
type repQueue struct {
	s     *Server
	queue []wire.Update // in timestamp order; guarded by s.wm.mu
	tick  *time.Ticker  // the flush period, from the first Next on
	full  bool          // the last cut was a full batch
}

// Next ships the next cut, at the flush tick unless the last cut was full.
// The stream asks only once the previous batch is acked (stop-and-wait), so
// a receiver whose VV reached a batch's HighTS holds every update at or
// below it. Only a batch that carried updates covers its HighTS: journaling
// every heartbeat's cursor would turn an idle system into constant fsync
// traffic, and a stale cursor only re-ships a suffix the receiver drops.
func (q *repQueue) Next(ctx context.Context) (wire.Message, uint64, bool) {
	if q.tick == nil {
		q.tick = newTicker(q.s.cfg.RepFlushEvery)
		context.AfterFunc(ctx, q.tick.Stop)
	}
	if !q.full {
		select {
		case <-ctx.Done():
			return nil, 0, false
		case <-q.tick.C:
		}
	}
	batch, high := q.cut()
	q.full = len(batch) == repBatchMax
	covers := uint64(0)
	if len(batch) > 0 {
		covers = high
	}
	return &wire.RepBatch{SrcDC: uint8(q.s.cfg.DC), HighTS: high, Ups: batch}, covers, true
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
func (q *repQueue) cut() ([]wire.Update, uint64) {
	w := &q.s.wm
	w.mu.Lock()
	defer w.mu.Unlock()
	limit := uint64(math.MaxUint64)
	if len(w.pending) > 0 {
		limit = w.pending[0].ts
	}
	k := 0
	for k < min(len(q.queue), repBatchMax) && q.queue[k].TS < limit {
		k++
	}
	batch := slices.Clone(q.queue[:k])
	q.queue = q.queue[k:]
	if len(q.queue) == 0 {
		q.queue = nil // release the drained backing array eventually
	}
	switch {
	case k == repBatchMax:
		return batch, batch[k-1].TS
	case limit != math.MaxUint64:
		return batch, limit - 1
	}
	high := max(q.s.clock.Now(), 1) - 1
	if k > 0 {
		high = max(high, batch[k-1].TS) // the reading may BE the last update's event
	}
	return batch, high
}
