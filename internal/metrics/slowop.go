package metrics

import (
	"sync/atomic"
	"time"
)

// SlowOp is one captured slow operation: which op, on which key (hashed —
// the trace must not leak values or full keys into an HTTP surface), and
// where the time went. Phase meanings are family-specific and documented
// by the server that records them; broadly: Queue is the pre-install wait
// (commit watermark, readers check, dependency wait), Fsync the durability
// wait, Repl the replication-side wait. Phases need not sum to Total.
type SlowOp struct {
	Start   int64         // unix nanoseconds at op start
	Op      string        // "put", "get", "rot", "rep"
	KeyHash uint64        // FNV-1a of the (first) key
	Total   time.Duration // end-to-end handler latency
	Queue   time.Duration
	Fsync   time.Duration
	Repl    time.Duration
}

// SlowRing is a fixed-size lock-free trace ring of the slowest-path
// operations: Record keeps an op only when it exceeded the ring's
// threshold. Slots hold atomically-published pointers, so concurrent
// recorders never block each other (a wrapped slot is simply overwritten)
// and Snapshot observes each slot's latest complete record. The one
// allocation per record is confined to ops that already blew a
// multi-millisecond budget.
//
// A nil *SlowRing is a valid no-op recorder, so servers call it
// unconditionally.
type SlowRing struct {
	thresh time.Duration
	next   atomic.Uint64
	slots  []atomic.Pointer[SlowOp]
}

// NewSlowRing returns a ring keeping the last size ops slower than
// threshold. Size is clamped to [16, 65536].
func NewSlowRing(size int, threshold time.Duration) *SlowRing {
	if size < 16 {
		size = 16
	}
	if size > 1<<16 {
		size = 1 << 16
	}
	return &SlowRing{thresh: threshold, slots: make([]atomic.Pointer[SlowOp], size)}
}

// Threshold returns the capture threshold.
func (r *SlowRing) Threshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.thresh
}

// Record captures op if it exceeded the threshold. Safe on a nil ring.
func (r *SlowRing) Record(op SlowOp) {
	if r == nil || op.Total < r.thresh {
		return
	}
	c := op
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(&c)
}

// Len returns how many ops have been captured since start (not clamped to
// the ring size).
func (r *SlowRing) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Snapshot returns the retained ops, newest first.
func (r *SlowRing) Snapshot() []SlowOp {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	size := uint64(len(r.slots))
	if n > size {
		n = size
	}
	out := make([]SlowOp, 0, n)
	head := r.next.Load()
	for k := uint64(1); k <= n; k++ {
		if op := r.slots[(head-k)%size].Load(); op != nil {
			out = append(out, *op)
		}
	}
	return out
}

// KeyHash is FNV-1a over the key, the hash SlowOp carries instead of the
// key itself.
func KeyHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// OpHists is the per-op server-side latency histogram block of every
// partition server (family.Partition records it): end-to-end handler latency
// for client puts, single-key reads (a 1-key ROT), multi-key ROTs, and
// replicated-update application. The zero value is ready to use; Record
// stays lock-free.
type OpHists struct {
	Put StaticHist
	Get StaticHist
	ROT StaticHist
	Rep StaticHist
}

// Register registers the four histograms under name with an op label each,
// plus the caller's labels (family/dc/partition).
func (o *OpHists) Register(r *Registry, name, help string, labels ...Label) {
	for _, e := range []struct {
		op string
		h  *StaticHist
	}{
		{"put", &o.Put}, {"get", &o.Get}, {"rot", &o.ROT}, {"rep", &o.Rep},
	} {
		r.Histogram(name, help, e.h, append(append([]Label(nil), labels...), Label{"op", e.op})...)
	}
}
