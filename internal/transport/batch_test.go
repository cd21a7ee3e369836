package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// countSink records batch sizes; its writeBatch stands in for a socket's.
// With gate set, every writeBatch counts its batch and then parks until
// the test sends one release — making batch boundaries fully
// deterministic: the test enqueues each burst while the writer is parked,
// so gather timing can never race frame arrival.
type countSink struct {
	gate     chan struct{}
	frames   atomic.Uint64
	batches  atomic.Uint64
	maxBatch atomic.Uint64
}

func (s *countSink) writeBatch(frames []*wire.FrameBuf) error {
	n := uint64(len(frames))
	for _, f := range frames {
		wire.PutFrame(f)
	}
	s.frames.Add(n)
	s.batches.Add(1)
	for {
		old := s.maxBatch.Load()
		if n <= old || s.maxBatch.CompareAndSwap(old, n) {
			break
		}
	}
	if s.gate != nil {
		<-s.gate
	}
	return nil
}

// testFrame returns a pooled frame holding n payload bytes.
func testFrame(n int) *wire.FrameBuf {
	f := wire.GetFrame()
	for len(f.B) < n {
		f.B = append(f.B, byte(len(f.B)))
	}
	return f
}

// runGatedLoad drives `rounds` bursts of `burst` frames (frameBytes each)
// through a writer over the gated sink, so every burst is enqueued while
// the writer is parked mid-flush: the whole burst is a ready backlog when
// the writer next gathers, so the batch boundaries are decided by the byte
// cap, not by scheduling races.
func runGatedLoad(t *testing.T, sink *countSink, rounds, burst, frameBytes int) StatsView {
	t.Helper()
	stats := &Stats{}
	w := newWriter(sink.writeBatch, stats)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.run()
	}()
	waitParked := func(batches uint64) {
		deadline := time.Now().Add(20 * time.Second)
		for sink.batches.Load() < batches {
			if time.Now().After(deadline) {
				t.Fatalf("writer never parked in flush %d", batches)
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	// Bootstrap: one sentinel frame parks the writer in its first flush.
	if err := w.enqueue(context.Background(), testFrame(frameBytes)); err != nil {
		t.Fatal(err)
	}
	waitParked(1)
	total, released := uint64(1), uint64(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < burst; i++ {
			if err := w.enqueue(context.Background(), testFrame(frameBytes)); err != nil {
				t.Fatal(err)
			}
		}
		total += uint64(burst)
		// Release parked flushes until the writer has gathered the whole
		// burst (a burst past the byte cap takes more than one batch).
		for {
			sink.gate <- struct{}{}
			released++
			waitParked(released + 1)
			if stats.SendQueue.Load() == 0 {
				break
			}
		}
	}
	// Drain: keep releasing until everything is flushed and nothing parks.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if released < sink.batches.Load() {
			sink.gate <- struct{}{}
			released++
			continue
		}
		if sink.frames.Load() == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained %d/%d frames", sink.frames.Load(), total)
		}
		time.Sleep(10 * time.Microsecond)
	}
	w.close()
	<-done
	if q := stats.SendQueue.Load(); q != 0 {
		t.Fatalf("send-queue gauge left at %d after drain", q)
	}
	return stats.View()
}

// TestBatcherGreedyDrainReachable pins the greedy drain-until-idle: a
// pre-queued backlog is retired in ONE flush, no matter how old its frames
// are.
func TestBatcherGreedyDrainReachable(t *testing.T) {
	stats := &Stats{}
	sink := &countSink{}
	w := newWriter(sink.writeBatch, stats)
	const n = 40
	for i := 0; i < n; i++ {
		if err := w.enqueue(context.Background(), testFrame(64)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.run()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sink.frames.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	w.close()
	<-done
	if sink.frames.Load() != n {
		t.Fatalf("delivered %d/%d", sink.frames.Load(), n)
	}
	if got := sink.batches.Load(); got != 1 {
		t.Fatalf("greedy drain split a ready backlog into %d flushes, want 1", got)
	}
	v := stats.View()
	if v.Flushes != 1 || v.FramesCoalesced != n-1 {
		t.Fatalf("stats: flushes=%d coalesced=%d, want 1/%d", v.Flushes, v.FramesCoalesced, n-1)
	}
}

// TestBatcherIdleFlushIsImmediate pins that the writer adds no idle
// latency: a lone frame flushes as soon as the queue goes idle.
func TestBatcherIdleFlushIsImmediate(t *testing.T) {
	sink := &countSink{}
	stats := &Stats{}
	w := newWriter(sink.writeBatch, stats)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.run()
	}()
	start := time.Now()
	if err := w.enqueue(context.Background(), testFrame(64)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sink.frames.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if sink.frames.Load() == 0 {
		t.Fatal("lone frame not flushed: idle queue must flush immediately")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("lone frame waited %v; an idle queue must flush at once", waited)
	}
	w.close()
	<-done
}

// TestBatcherAdaptiveFlushUnderLoad is the loaded-writer acceptance test
// and pins the byte cap: bursts of 192×2 KiB frames land as ready
// backlogs (the gated sink removes scheduling races), so every batch the
// writer cuts is as large as the backlog allows up to maxBatchBytes —
// exactly 128 of these frames, never more — and the enqueue→flush delay
// is recorded for every frame.
func TestBatcherAdaptiveFlushUnderLoad(t *testing.T) {
	const (
		rounds     = 20
		burst      = 192
		frameBytes = 2048
		capFrames  = maxBatchBytes / frameBytes
	)
	sink := &countSink{gate: make(chan struct{})}
	v := runGatedLoad(t, sink, rounds, burst, frameBytes)

	if v.FlushP99Delay <= 0 {
		t.Fatal("FlushP99Delay not recorded")
	}
	if got := sink.maxBatch.Load(); got != capFrames {
		t.Fatalf("largest batch = %d frames, want the byte cap's %d", got, capFrames)
	}
	// Each burst goes out as one full batch and one of the 64 frames
	// left; the 64 KiB bufio buffer TCP once wrote through cut these
	// bursts at 32 frames.
	perFlush := float64(v.FramesCoalesced+v.Flushes) / float64(v.Flushes)
	if perFlush < 2*32 {
		t.Fatalf("%.1f frames/flush; a ready backlog was not coalesced up to the byte cap", perFlush)
	}
	t.Logf("%.1f frames/flush, largest batch %d, p99=%v", perFlush, sink.maxBatch.Load(), v.FlushP99Delay)
}

// TestWriterCloseRace closes a writer while senders keep enqueueing: every
// enqueue returns (nil or ErrClosed), run returns, and no frame is left
// counted in the send-queue gauge.
func TestWriterCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		stats := &Stats{}
		sink := &countSink{}
		w := newWriter(sink.writeBatch, stats)
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.run()
		}()
		var senders sync.WaitGroup
		for g := 0; g < 4; g++ {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for {
					if err := w.enqueue(context.Background(), testFrame(64)); err != nil {
						if err != ErrClosed {
							t.Errorf("enqueue: %v, want ErrClosed", err)
						}
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		w.close()
		senders.Wait()
		<-done
		if q := stats.SendQueue.Load(); q != 0 {
			t.Fatalf("round %d: send-queue gauge left at %d after close", round, q)
		}
	}
}
