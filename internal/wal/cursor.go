package wal

import (
	"container/heap"
	"sync"
)

// CursorTracker computes the durable replication frontier for window-based
// streams (CC-LO, COPS) whose acknowledgments complete out of order. The
// frontier HighTS is the largest timestamp T such that every enqueued
// update with timestamp ≤ T has been acknowledged — the only value safe to
// persist as a cursor, because recovery re-enqueues exactly the updates
// above it. Timestamps may be enqueued in any order (the put path assigns
// them outside any fence), so the tracker keeps a min-heap of unacked
// timestamps with lazy deletion rather than assuming contiguity.
type CursorTracker struct {
	mu       sync.Mutex
	unacked  tsHeap
	acked    map[uint64]int // acked-but-not-yet-popped timestamp → count
	maxAcked uint64
}

// Enqueue records that an update with timestamp ts has entered the stream.
func (t *CursorTracker) Enqueue(ts uint64) {
	t.mu.Lock()
	heap.Push(&t.unacked, ts)
	t.mu.Unlock()
}

// Ack records the acknowledgment of ts and returns the new frontier HighTS
// plus whether it advanced (callers persist a cursor only when it did).
func (t *CursorTracker) Ack(ts uint64) (highTS uint64, advanced bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	before := t.frontier()
	t.maxAcked = max(t.maxAcked, ts)
	// Keep only an ack the heap can hold: one below every outstanding
	// timestamp was never enqueued (a stop-and-wait stream enqueues none).
	if len(t.unacked) > 0 && ts >= t.unacked[0] {
		if t.acked == nil {
			t.acked = make(map[uint64]int)
		}
		t.acked[ts]++
	}
	// Pop every heap head whose ack has arrived.
	for len(t.unacked) > 0 {
		head := t.unacked[0]
		n := t.acked[head]
		if n == 0 {
			break
		}
		if n == 1 {
			delete(t.acked, head)
		} else {
			t.acked[head] = n - 1
		}
		heap.Pop(&t.unacked)
	}
	after := t.frontier()
	return after, after > before
}

// frontier is the current HighTS: everything below the smallest unacked
// timestamp, or everything acked when nothing is outstanding. Callers hold
// t.mu.
func (t *CursorTracker) frontier() uint64 {
	if len(t.unacked) > 0 {
		return t.unacked[0] - 1
	}
	return t.maxAcked
}

// tsHeap is a min-heap of uint64 timestamps.
type tsHeap []uint64

func (h tsHeap) Len() int           { return len(h) }
func (h tsHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h tsHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *tsHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *tsHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
