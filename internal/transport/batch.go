package transport

import (
	"context"
	"sync"
	"time"

	"repro/internal/wire"
)

// This file is TCP's send path. Every socket has one writer — a bounded
// frame queue drained by a single goroutine — that coalesces whatever is
// queued into one batch and hands it to the socket as one scatter-gather
// write (tcpConn.writeBatch):
//
//	frames ──enqueue──▶ [bounded queue] ──gather──▶ writeBatch(batch)
//
// A batch is cut when
//
//	(a) the queue goes idle (nothing more to coalesce — flush now), or
//	(b) the batch holds maxBatchBytes (bound memory and write size).
//
// Nothing else bounds a batch: gathering is a non-blocking receive per
// frame, so a batch stays open only while frames are already waiting. The
// Local simulator models latency, not syscalls, and sends each frame as
// its own flight (local.go).
const (
	// maxBatchBytes caps one coalesced batch.
	maxBatchBytes = 256 << 10
	// writevBytes is the frame size at which a socket stops copying the
	// frame into its staging buffer and chains it as its own writev iovec
	// instead (the copy would cost more than the extra scatter-gather
	// entry).
	writevBytes = 16 << 10
	// sendQueueLen bounds a socket's send queue. Senders block
	// (backpressure) once it is full.
	sendQueueLen = 1024
)

// queued is one queued frame plus its enqueue time, the start of the
// enqueue→flush delay the FlushDelay histogram reports.
type queued struct {
	f  *wire.FrameBuf
	at time.Time
}

// writer is one socket's batched send path: enqueue feeds the bounded
// queue, run (one goroutine, started by the owner) gathers batches and
// hands each to flush.
type writer struct {
	// flush consumes one batch in order. Ownership of every frame passes to
	// it, and it must PutFrame each once its bytes are consumed; the slice
	// itself is reused after flush returns. A non-nil error stops the
	// writer: run returns after draining the queue.
	flush func(frames []*wire.FrameBuf) error
	stats *Stats

	q      chan queued
	closed chan struct{}
	once   sync.Once
}

func newWriter(flush func([]*wire.FrameBuf) error, stats *Stats) *writer {
	return &writer{
		flush:  flush,
		stats:  stats,
		q:      make(chan queued, sendQueueLen),
		closed: make(chan struct{}),
	}
}

// close stops the writer. Idempotent; queued frames that run no longer
// writes are recycled (by run's teardown or a racing enqueue).
func (w *writer) close() {
	w.once.Do(func() { close(w.closed) })
}

// enqueue hands a framed envelope to the writer, blocking while the queue
// is full (backpressure). A blocked enqueue aborts when ctx is done, so a
// Call deadline is honoured even while the socket is stalled. Ownership of
// f transfers to the writer on success.
func (w *writer) enqueue(ctx context.Context, f *wire.FrameBuf) error {
	select {
	case <-w.closed:
		wire.PutFrame(f)
		return ErrClosed
	default:
	}
	// Count the frame before committing it so the writer's decrement can
	// never be observed ahead of the increment (a transiently negative
	// gauge).
	w.stats.SendQueue.Add(1)
	select {
	case w.q <- queued{f: f, at: time.Now()}:
		select {
		case <-w.closed:
			// The writer closed while we were queueing; run (and its
			// teardown drain) may already be gone, stranding f. Sweep the
			// queue ourselves so no frame or gauge count leaks, and report
			// the send as failed — the frame may never be written.
			w.drain()
			return ErrClosed
		default:
		}
		return nil
	case <-w.closed:
		w.stats.SendQueue.Add(-1)
		wire.PutFrame(f)
		return ErrClosed
	case <-ctx.Done():
		w.stats.SendQueue.Add(-1)
		wire.PutFrame(f)
		return ctx.Err()
	}
}

// run is the writer loop: block for the first queued frame, gather until
// the queue is idle or the batch is full, flush, repeat. It returns when
// the writer is closed or flush fails (closing the writer either way), so
// the owner can tear down its socket when run returns.
func (w *writer) run() {
	// Teardown order matters (defers run LIFO): close FIRST, drain second.
	// An enqueue racing teardown re-checks closed after committing its
	// frame; only with closed already set can it self-drain, so a drain
	// that ran before close could leave a just-committed frame stranded
	// (leaked FrameBuf, SendQueue gauge permanently high).
	defer w.drain()
	defer w.close()
	var (
		frames []*wire.FrameBuf
		times  []time.Time
	)
	for {
		var it queued
		select {
		case it = <-w.q:
		case <-w.closed:
			return
		}
		frames, times = frames[:0], times[:0]
		bytes := 0
	gather:
		for {
			w.stats.SendQueue.Add(-1)
			frames = append(frames, it.f)
			times = append(times, it.at)
			bytes += len(it.f.B)
			if bytes >= maxBatchBytes {
				break
			}
			select {
			case it = <-w.q:
			default:
				break gather // queue idle: flush what we have
			}
		}
		if err := w.flush(frames); err != nil {
			return
		}
		now := time.Now()
		for _, at := range times {
			w.stats.FlushDelay.Record(now.Sub(at))
		}
		w.stats.Flushes.Add(1)
		w.stats.FramesCoalesced.Add(uint64(len(frames) - 1))
	}
}

// drain empties the queue after close so the queue-depth gauge does not
// count frames that will never be written.
func (w *writer) drain() {
	for {
		select {
		case it := <-w.q:
			w.stats.SendQueue.Add(-1)
			wire.PutFrame(it.f)
		default:
			return
		}
	}
}
