package store

import (
	"sync/atomic"
	"unsafe"
)

// Allocators for value bytes, version backing arrays, chain headers and key
// entries. The bump allocators hand out slices of large chunks and never
// reclaim: published chains may be held by lock-free readers for an
// unbounded time, so recycling would need epoch-based reclamation. Go's GC
// already is one — a chunk is reclaimed as soon as nothing references it —
// so the chunks only exist to collapse millions of tiny heap objects into a
// few large ones, which is what cuts GC mark cost and pause time at
// production key counts.
//
// The price of a chunk is pinning: one cold, never-rewritten chain keeps its
// whole chunk alive, including every byte that belonged to neighbours
// republished long ago — and everything those dead neighbours still point
// at. That is affordable only for what a key allocates a bounded number of
// times: its entry, and the backing arrays, chain headers and values of its
// first versions, until its chain is trimmed or outgrows slabMaxAlloc
// (arrays of 1, 2, 4 and 8 slots, a header and a value per install). What a
// frequently written key allocates without bound — trimmed or long backing
// arrays, a header and a value per install — is allocated privately
// (engine.go: backing, privateTier, publish), so the GC frees it object by
// object, exactly when the key moves off it.

// arenaChunk is the value-arena chunk size. Values larger than a quarter
// chunk get a private allocation so one big value cannot pin a mostly-dead
// chunk.
const arenaChunk = 64 << 10

// addBytes accumulates reserved bytes into an engine-wide counter. The
// pointer may be nil (zero-value allocator); the counter is atomic because
// shards allocate concurrently, but it is bumped only when a chunk or a
// private array is reserved — never on an install that fits the memory its
// key already has — so the accounting adds no per-op cost.
func addBytes(c *atomic.Int64, n int64) {
	if c != nil {
		c.Add(n)
	}
}

// arena is a bump allocator for value bytes. Not safe for concurrent use;
// callers hold the shard lock.
type arena struct {
	buf   []byte
	bytes *atomic.Int64 // engine-wide reserved-bytes counter, may be nil
}

// copy returns a stable copy of b: a private allocation when private is set
// (uncounted, like the headers of private-tier chains) or b is oversized,
// arena bytes otherwise.
func (a *arena) copy(b []byte, private bool) []byte {
	if len(b) == 0 {
		return nil
	}
	if private {
		return append([]byte(nil), b...)
	}
	if len(b) > arenaChunk/4 {
		addBytes(a.bytes, int64(len(b)))
		return append([]byte(nil), b...)
	}
	if len(a.buf)+len(b) > cap(a.buf) {
		a.buf = make([]byte, 0, arenaChunk)
		addBytes(a.bytes, arenaChunk)
	}
	off := len(a.buf)
	a.buf = append(a.buf, b...)
	// Full slice expression: cap == len, so a later bump can never alias.
	return a.buf[off:len(a.buf):len(a.buf)]
}

// slabChunk is the number of T per slab chunk.
const slabChunk = 512

// slabMaxAlloc is the largest alloc a slab serves; callers allocate longer
// slices privately. It keeps the untrimmed 1–8 version chains of the cold
// majority of keys collapsed into chunks and leaves the chains of
// frequently written keys to the GC.
const slabMaxAlloc = 8

// slab is a bump allocator for []T (version backing arrays) and single T
// (chain headers, key entries). Not safe for concurrent use; callers hold
// the shard lock.
type slab[T any] struct {
	buf   []T
	next  int
	elem  int64         // unsafe.Sizeof(T), set by init; 0 leaves bytes uncounted
	bytes *atomic.Int64 // engine-wide reserved-bytes counter, may be nil
}

// init wires the slab's reserved-bytes accounting to an engine-wide counter.
func (s *slab[T]) init(bytes *atomic.Int64) {
	var z T
	s.elem = int64(unsafe.Sizeof(z))
	s.bytes = bytes
}

// alloc returns a zeroed []T of length and capacity n, 0 < n ≤ slabMaxAlloc.
func (s *slab[T]) alloc(n int) []T {
	if s.next+n > len(s.buf) {
		s.buf = make([]T, slabChunk)
		s.next = 0
		addBytes(s.bytes, slabChunk*s.elem)
	}
	out := s.buf[s.next : s.next+n : s.next+n]
	s.next += n
	return out
}

// one returns a pointer to one zeroed T (chain headers, key entries) —
// alloc(1) without the slice header.
func (s *slab[T]) one() *T {
	if s.next >= len(s.buf) {
		s.buf = make([]T, slabChunk)
		s.next = 0
		addBytes(s.bytes, slabChunk*s.elem)
	}
	p := &s.buf[s.next]
	s.next++
	return p
}
