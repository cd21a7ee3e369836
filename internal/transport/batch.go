package transport

import (
	"context"
	"sync"
	"time"

	"repro/internal/wire"
)

// This file is TCP's batching engine. A Batcher owns one socket's send
// path — a bounded frame queue drained by a single writer goroutine — and
// decides when a coalesced batch is handed to its sink:
//
//	frames ──Enqueue──▶ [bounded queue] ──gather──▶ sink.WriteBatch(batch)
//
// The gather policy is the latency/throughput knob. A batch is cut when
//
//	(a) the queue goes idle (nothing more to coalesce — flush now),
//	(b) the oldest gathered frame has waited FlushBudget (adaptive flush:
//	    latency is bounded even while frames keep arriving), or
//	(c) the batch reaches MaxBatchBytes (bound memory and write size).
//
// FlushBudget = 0 disables (b): that is the seed's greedy drain-until-idle,
// which the engine tests keep as their reference. TCP turns a batch into
// one scatter-gather socket write (see tcpSink), so coalescing saves real
// syscalls. The Local simulator models latency, not syscalls, and sends
// each frame as its own flight (local.go).

// DefaultFlushBudget is the adaptive flush latency budget of DefaultPolicy,
// and of cluster.Config.Batching when none is given: it caps how long a
// queued frame can wait for the batch it joined to be cut, while staying
// well under the intra-DC RTT it is amortizing syscalls against.
const DefaultFlushBudget = 200 * time.Microsecond

// Batch sizing defaults.
const (
	// defaultMaxBatchBytes caps one coalesced batch. It deliberately
	// exceeds the seed's 64 KiB bufio buffer (whose implicit flushes used
	// to cut batches at frame granularity): with the budget bounding
	// latency, bigger batches are pure syscall amortization.
	defaultMaxBatchBytes = 256 << 10
	// defaultWritevBytes is the frame size at which the TCP sink stops
	// copying the frame into its staging buffer and chains it as its own
	// writev iovec instead (the copy would cost more than the extra
	// scatter-gather entry).
	defaultWritevBytes = 16 << 10
	// defaultQueueLen bounds the per-path send queue. Senders block
	// (backpressure) once it is full.
	defaultQueueLen = 1024
)

// BatchPolicy configures one Batcher.
type BatchPolicy struct {
	// FlushBudget bounds how long one batch may stay open gathering more
	// frames, so the coalescing delay a batch imposes on its oldest frame
	// is at most the budget (total enqueue→flush delay is queue wait plus
	// this — ≤ the budget whenever the sink keeps up with the offered
	// load). 0 means greedy drain-until-idle (the seed policy: a batch is
	// cut only by queue idleness or the byte cap). DefaultPolicy applies
	// DefaultFlushBudget.
	FlushBudget time.Duration
	// MaxBatchBytes cuts a batch once it holds this many frame bytes
	// (0 = default 256 KiB).
	MaxBatchBytes int
	// WritevBytes is the frame size at or above which the TCP sink skips
	// the staging-buffer copy and scatter-gathers the frame's own bytes
	// (0 = default 16 KiB).
	WritevBytes int
	// QueueLen bounds the send queue (0 = default 1024).
	QueueLen int
}

// DefaultPolicy is the adaptive policy the plain NewTCP constructor uses.
func DefaultPolicy() BatchPolicy {
	return BatchPolicy{FlushBudget: DefaultFlushBudget}
}

func (p BatchPolicy) withDefaults() BatchPolicy {
	if p.MaxBatchBytes <= 0 {
		p.MaxBatchBytes = defaultMaxBatchBytes
	}
	if p.WritevBytes <= 0 {
		p.WritevBytes = defaultWritevBytes
	}
	if p.QueueLen <= 0 {
		p.QueueLen = defaultQueueLen
	}
	return p
}

// BatchSink consumes coalesced batches.
type BatchSink interface {
	// WriteBatch consumes one batch in order. Ownership of every frame
	// transfers to the sink, which must PutFrame each once its bytes are
	// consumed; the slice itself is the Batcher's and is reused after
	// WriteBatch returns, so a sink that defers consumption must copy the
	// slice, not retain it. A non-nil error stops the Batcher: Run returns
	// after draining the queue.
	WriteBatch(frames []*wire.FrameBuf) error
}

// batchItem is one queued frame plus its enqueue time, the start of the
// enqueue→flush delay the FlushDelay histogram reports.
type batchItem struct {
	f  *wire.FrameBuf
	at time.Time
}

// Batcher is one batched send path: Enqueue feeds the bounded queue, Run
// (one goroutine, started by the owner) gathers per the policy and hands
// batches to the sink.
type Batcher struct {
	sink  BatchSink
	pol   BatchPolicy
	stats *Stats

	q      chan batchItem
	closed chan struct{}
	once   sync.Once
}

// NewBatcher builds a Batcher over sink. The caller must run Run on its
// own goroutine and eventually Close.
func NewBatcher(sink BatchSink, pol BatchPolicy, stats *Stats) *Batcher {
	pol = pol.withDefaults()
	return &Batcher{
		sink:   sink,
		pol:    pol,
		stats:  stats,
		q:      make(chan batchItem, pol.QueueLen),
		closed: make(chan struct{}),
	}
}

// Close stops the Batcher. Idempotent; queued frames that Run no longer
// writes are recycled (by Run's teardown or a racing Enqueue).
func (b *Batcher) Close() {
	b.once.Do(func() { close(b.closed) })
}

// Enqueue hands a framed envelope to the writer, blocking while the queue
// is full (backpressure). A blocked enqueue aborts when ctx is done, so a
// Call deadline is honoured even while the sink is stalled. Ownership of f
// transfers to the Batcher on success.
func (b *Batcher) Enqueue(ctx context.Context, f *wire.FrameBuf) error {
	select {
	case <-b.closed:
		wire.PutFrame(f)
		return ErrClosed
	default:
	}
	// Count the frame before committing it so the writer's decrement can
	// never be observed ahead of the increment (a transiently negative
	// gauge).
	b.stats.SendQueue.Add(1)
	select {
	case b.q <- batchItem{f: f, at: time.Now()}:
		select {
		case <-b.closed:
			// The Batcher closed while we were queueing; Run (and its
			// teardown drain) may already be gone, stranding f. Sweep the
			// queue ourselves so no frame or gauge count leaks, and report
			// the send as failed — the frame may never be written.
			b.drain()
			return ErrClosed
		default:
		}
		return nil
	case <-b.closed:
		b.stats.SendQueue.Add(-1)
		wire.PutFrame(f)
		return ErrClosed
	case <-ctx.Done():
		b.stats.SendQueue.Add(-1)
		wire.PutFrame(f)
		return ctx.Err()
	}
}

// Run is the writer loop: block for the first queued frame, gather per the
// flush policy, hand the batch to the sink, repeat. It returns when the
// Batcher is closed or the sink fails (closing the Batcher either way), so
// the owner can tear down its endpoint when Run returns.
func (b *Batcher) Run() {
	// Teardown order matters (defers run LIFO): Close FIRST, drain second.
	// An Enqueue racing teardown re-checks closed after committing its
	// frame; only with closed already set can it self-drain, so a drain
	// that ran before Close could leave a just-committed frame stranded
	// (leaked FrameBuf, SendQueue gauge permanently high).
	defer b.drain()
	defer b.Close()
	var (
		frames []*wire.FrameBuf
		times  []time.Time
	)
	for {
		var it batchItem
		select {
		case it = <-b.q:
		case <-b.closed:
			return
		}
		frames, times = frames[:0], times[:0]
		bytes := 0
		var deadline time.Time
		if b.pol.FlushBudget > 0 {
			// The budget bounds how long the batch stays OPEN, from gather
			// start — not from the first frame's enqueue. Anchoring on
			// enqueue time would cut one-frame batches whenever a backlog
			// is older than the budget (a stalled sink coming back), i.e.
			// give up coalescing exactly when it matters most.
			deadline = time.Now().Add(b.pol.FlushBudget)
		}
		for {
			b.stats.SendQueue.Add(-1)
			frames = append(frames, it.f)
			times = append(times, it.at)
			bytes += len(it.f.B)
			if bytes >= b.pol.MaxBatchBytes {
				break
			}
			if b.pol.FlushBudget > 0 && !time.Now().Before(deadline) {
				break
			}
			select {
			case it = <-b.q:
				continue
			default:
			}
			break // queue idle: flush what we have
		}
		if err := b.sink.WriteBatch(frames); err != nil {
			return
		}
		now := time.Now()
		for _, at := range times {
			b.stats.FlushDelay.Record(now.Sub(at))
		}
		b.stats.Flushes.Add(1)
		b.stats.FramesCoalesced.Add(uint64(len(frames) - 1))
	}
}

// drain empties the queue after close so the queue-depth gauge does not
// count frames that will never be written.
func (b *Batcher) drain() {
	for {
		select {
		case it := <-b.q:
			b.stats.SendQueue.Add(-1)
			wire.PutFrame(it.f)
		default:
			return
		}
	}
}
