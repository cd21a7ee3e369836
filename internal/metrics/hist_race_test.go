package metrics

import (
	"sync"
	"testing"
	"time"
)

// sumBuckets reads every fine bucket once. Readers use it to cross-check
// the count field against the buckets under concurrency.
func (h *StaticHist) sumBuckets() uint64 {
	var s uint64
	for i := range h.buckets {
		s += h.buckets[i].Load()
	}
	return s
}

// TestSnapshotRacesRecord hammers Snapshot/Percentile/cumulative against
// concurrent Record under -race. A snapshot may be torn, but it must never
// panic, and — because Record bumps the bucket before the count — a reader
// that loads the count FIRST and then sums the buckets must find
// bucketSum ≥ count: every observation included in the count had already
// published its bucket increment.
func TestSnapshotRacesRecord(t *testing.T) {
	var h StaticHist
	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := time.Duration(w+1) * 123 * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
					h.Record(d)
				}
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		n := h.Count() // load count BEFORE summing buckets
		if bs := h.sumBuckets(); bs < n {
			t.Fatalf("bucket sum %d < count %d: count published before bucket", bs, n)
		}
		// A snapshot racing writers may be torn (its quantiles can even
		// disagree with each other — each Percentile call walks the live
		// buckets at a different instant), but every field must stay sane.
		s := h.Snapshot()
		if s.P50 < 0 || s.P99 < 0 || s.Mean < 0 || s.Max < 0 {
			t.Fatalf("negative torn readout: %+v", s)
		}
		h.Percentile(99)
		h.cumulative(histBounds)
	}
	close(stop)
	wg.Wait()
	// Quiesced: the books must balance exactly.
	if n, bs := h.Count(), h.sumBuckets(); n != bs {
		t.Fatalf("after quiesce: count %d != bucket sum %d", n, bs)
	}
}

// TestResetRacesRecord runs Reset against concurrent Record under -race and
// asserts what Reset guarantees. It zeroes the buckets, then the count, as
// separate stores, so every Record that completes between the two is left
// in a bucket and missing from the count: while writers run, the books can
// diverge by any amount (a resetter descheduled mid-scan strands hundreds),
// and the only promises are no panic and individually sane readouts. The
// books are exact for a Reset that runs once writers have quiesced — which
// is how the warm-up/measurement boundary uses it.
func TestResetRacesRecord(t *testing.T) {
	var h StaticHist
	const writers = 8
	stopW := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopW:
					return
				default:
					h.Record(time.Millisecond)
				}
			}
		}()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		h.Reset()
		// Mid-race reads must stay sane: quantiles never panic, and the
		// snapshot's fields are individually plausible even when torn.
		s := h.Snapshot()
		if s.P99 < 0 || s.Mean < 0 {
			t.Fatalf("negative torn readout: %+v", s)
		}
		h.cumulative(histBounds)
	}
	// Quiesce, THEN reset: whatever the racing resets stranded is gone and
	// the books balance exactly from here on.
	close(stopW)
	wg.Wait()
	h.Reset()
	if n, bs := h.Count(), h.sumBuckets(); n != 0 || bs != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("after a quiesced reset: count %d, bucket sum %d, max %s, mean %s; want all zero", n, bs, h.Max(), h.Mean())
	}
	for range writers {
		h.Record(time.Millisecond)
	}
	if n, bs := h.Count(), h.sumBuckets(); n != writers || bs != writers {
		t.Fatalf("after %d records on a reset histogram: count %d, bucket sum %d", writers, n, bs)
	}
}

func TestSlowRing(t *testing.T) {
	var nilRing *SlowRing
	nilRing.Record(SlowOp{Total: time.Hour}) // must not panic
	if nilRing.Snapshot() != nil || nilRing.Len() != 0 || nilRing.Threshold() != 0 {
		t.Fatal("nil ring must be inert")
	}

	r := NewSlowRing(16, 10*time.Millisecond)
	r.Record(SlowOp{Op: "put", Total: 5 * time.Millisecond}) // under threshold
	if r.Len() != 0 {
		t.Fatal("fast op captured")
	}
	for i := 0; i < 20; i++ {
		r.Record(SlowOp{Op: "put", KeyHash: uint64(i), Total: time.Duration(i+11) * time.Millisecond})
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("ring kept %d, want 16", len(snap))
	}
	// Newest first, oldest four wrapped away.
	if snap[0].KeyHash != 19 || snap[len(snap)-1].KeyHash != 4 {
		t.Fatalf("wrap order wrong: first=%d last=%d", snap[0].KeyHash, snap[len(snap)-1].KeyHash)
	}
}

func TestSlowRingConcurrent(t *testing.T) {
	r := NewSlowRing(64, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(SlowOp{Op: "rot", KeyHash: uint64(w), Total: time.Second})
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 8000 {
		t.Fatalf("Len = %d, want 8000", r.Len())
	}
	for _, op := range r.Snapshot() {
		if op.Op != "rot" || op.Total != time.Second {
			t.Fatalf("torn slow op: %+v", op)
		}
	}
}

// TestOpHistsRegister: the four histograms register under one name, an op
// label each, next to the caller's labels.
func TestOpHistsRegister(t *testing.T) {
	var o OpHists
	r := NewRegistry()
	o.Put.Record(time.Millisecond)
	o.Register(r, "x_op_seconds", "h", Label{"family", "cclo"})
	var b sbWriter
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`x_op_seconds_count{family="cclo",op="put"} 1`,
		`x_op_seconds_count{family="cclo",op="rot"} 0`,
		`x_op_seconds_count{family="cclo",op="get"} 0`,
		`x_op_seconds_count{family="cclo",op="rep"} 0`,
	} {
		if !contains(b.s, want) {
			t.Fatalf("missing %q in:\n%s", want, b.s)
		}
	}
}

type sbWriter struct{ s string }

func (w *sbWriter) Write(p []byte) (int, error) { w.s += string(p); return len(p), nil }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
