// Package mvstore implements the per-partition multi-version storage used
// by the timestamp-based protocols (Contrarian, Cure). It is a thin adapter
// over the shared engine in internal/store: version chains, sharding,
// trimming, and lock-free reads live there; this package contributes the
// dependency-vector payload, the snapshot-visibility rule and the trim
// frontier.
//
// Each key holds a short chain of versions totally ordered by (TS, SrcDC) —
// the last-writer-wins rule of Section 2.2 that guarantees convergence.
// Reads select the freshest version whose dependency vector is entry-wise ≤
// a snapshot vector, which is exactly the visibility rule of Section 4.
//
// Chains are trimmed by a frontier, a vector the snapshots readers get are
// expected to dominate (core sets it to a lagged GSS). Every install drops
// the versions older than the newest one visible at the frontier, since
// that one hides them from any such snapshot; a count ceiling bounds a
// chain while the frontier stands still. A snapshot below the frontier may
// then find no retained version it can see on a trimmed chain. Because
// trimming only ever drops a prefix, the version it wanted was trimmed (or
// the key did not exist at the snapshot — the store can no longer tell),
// so ReadAtSnapshot refuses with ErrTrimmed rather than guess, and the
// reader retries at a fresher snapshot. A retained version visible at the
// snapshot is always the exact answer: every trimmed version precedes it.
package mvstore

import (
	"errors"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Version is one immutable version of an item.
type Version struct {
	Value []byte
	TS    uint64 // timestamp assigned at the source DC; DV[SrcDC] == TS
	SrcDC uint8
	DV    vclock.Vec // dependency vector, one entry per DC
}

// Before reports whether v precedes o in the total last-writer-wins order.
func (v *Version) Before(o *Version) bool {
	if v.TS != o.TS {
		return v.TS < o.TS
	}
	return v.SrcDC < o.SrcDC
}

// ErrTrimmed is ReadAtSnapshot's refusal: the key's chain was trimmed and
// no retained version is visible at the snapshot, so the exact answer is
// gone.
var ErrTrimmed = errors.New("mvstore: the snapshot's version was trimmed")

// Store is a sharded multi-version key-value map. All methods are safe for
// concurrent use; reads and iteration are lock-free (see internal/store).
type Store struct {
	eng      *store.Engine[vclock.Vec, struct{}]
	frontier atomic.Pointer[vclock.Vec] // nil until SetFrontier
}

// New returns an empty store with the default shard count.
func New() *Store { return NewSharded(0, 0) }

// NewSharded is New with an explicit count ceiling (0 = store.Ceiling, which
// only has to outlast a stalled GSS long enough for core's ROT retry budget
// of a few hundred milliseconds to see it move) and shard count (0 = auto
// from GOMAXPROCS).
func NewSharded(maxVersions, shards int) *Store {
	s := &Store{}
	s.eng = store.NewTrimmed[vclock.Vec, struct{}](maxVersions, shards, s.trim)
	return s
}

// trim is the engine's trim rule: a chain starts at its newest version
// visible at the frontier. The scan runs from the tail, so on a key the
// frontier has reached it stops after the few versions written since.
func (s *Store) trim(p store.Pending[vclock.Vec]) int {
	f := s.frontier.Load()
	if f == nil {
		return 0
	}
	for j := p.Len() - 1; j > p.Lo; j-- {
		if p.Version(j).Extra.LEQ(*f) {
			return j
		}
	}
	return 0
}

// SetFrontier makes f the trim frontier. Snapshots below it risk refusal,
// so it should trail the snapshots readers get (core: the GSS a few
// broadcasts ago). Successive frontiers must be monotone, and f must not be
// modified afterwards.
func (s *Store) SetFrontier(f vclock.Vec) { s.frontier.Store(&f) }

// Frontier returns the current trim frontier (nil before the first
// SetFrontier). The vector must not be modified.
func (s *Store) Frontier() vclock.Vec {
	if f := s.frontier.Load(); f != nil {
		return *f
	}
	return nil
}

func toEngine(v Version) store.Version[vclock.Vec] {
	return store.Version[vclock.Vec]{Value: v.Value, TS: v.TS, Src: v.SrcDC, Extra: v.DV}
}

func fromEngine(ev *store.Version[vclock.Vec]) Version {
	return Version{Value: ev.Value, TS: ev.TS, SrcDC: ev.Src, DV: ev.Extra}
}

// Refusals returns how many snapshot reads were refused with ErrTrimmed.
func (s *Store) Refusals() uint64 { return s.eng.Refusals() }

// Register exposes the underlying engine's series (occupancy and refusals)
// under the given registry.
func (s *Store) Register(r *metrics.Registry, labels ...metrics.Label) {
	s.eng.Register(r, labels...)
}

// Install inserts version v of key, keeping the chain ordered and trimmed.
// Duplicate (TS, SrcDC) installs are idempotent. It returns true if v is
// now the newest version of key.
func (s *Store) Install(key string, v Version) bool {
	return s.eng.Install(key, toEngine(v))
}

// ReadLatest returns the newest version of key. Lock-free.
func (s *Store) ReadLatest(key string) (Version, bool) {
	ev := s.eng.Latest(key)
	if ev == nil {
		return Version{}, false
	}
	return fromEngine(ev), true
}

// ReadAtSnapshot returns the freshest version of key whose dependency
// vector is entry-wise ≤ sv. If the key has no version inside the snapshot
// it returns false — the key does not exist yet in this snapshot — unless
// the chain was trimmed, in which case that cannot be told from "its
// version was trimmed" and it returns ErrTrimmed. Lock-free.
func (s *Store) ReadAtSnapshot(key string, sv vclock.Vec) (Version, bool, error) {
	ref := s.eng.Ref(key)
	// Fast path: the newest version is usually inside the snapshot (the GSS
	// lags writes by only a stabilization interval), and checking it through
	// the cached latest pointer skips the chain-header load.
	if v := ref.Latest(); v != nil && v.Extra.LEQ(sv) {
		return fromEngine(v), true, nil
	}
	c := ref.View()
	if c.Len() == 0 {
		return Version{}, false, nil
	}
	for i := len(c.Versions) - 1; i >= 0; i-- {
		if c.Versions[i].Extra.LEQ(sv) {
			return fromEngine(&c.Versions[i]), true, nil
		}
	}
	if s.eng.Refuse(c) {
		return Version{}, false, ErrTrimmed
	}
	return Version{}, false, nil
}

// Keys returns the number of keys present.
func (s *Store) Keys() int { return s.eng.Keys() }

// ForEachLatest calls fn with every key's newest version. Iteration is
// lock-free over immutable chain snapshots, so fn may block (e.g. on disk
// I/O during WAL snapshot emission) without stalling writers, and may call
// back into the store.
func (s *Store) ForEachLatest(fn func(key string, v Version)) {
	s.eng.ForEach(func(key string, c *store.Chain[vclock.Vec]) bool {
		fn(key, fromEngine(c.Latest()))
		return true
	})
}

// ChainLen returns the number of retained versions of key.
func (s *Store) ChainLen(key string) int { return s.eng.View(key).Len() }
