// Package mvstore implements the per-partition multi-version storage used
// by the timestamp-based protocols (Contrarian, Cure). It is a thin adapter
// over the shared engine in internal/store: version chains, sharding,
// trimming, and lock-free reads live there; this package contributes the
// dependency-vector payload and the snapshot-visibility rule.
//
// Each key holds a short chain of versions totally ordered by (TS, SrcDC) —
// the last-writer-wins rule of Section 2.2 that guarantees convergence.
// Reads select the freshest version whose dependency vector is entry-wise ≤
// a snapshot vector, which is exactly the visibility rule of Section 4.
//
// Chains are capped: once a chain exceeds its cap the oldest versions are
// discarded. A snapshot read that would have needed a discarded version
// falls back to the oldest retained one and the store counts the event, so
// benchmarks can verify the approximation never matters at the GSS lags the
// protocols sustain (it does not; see mvstore tests and the zero-violation
// checker verdicts in benchmark/results/).
package mvstore

import (
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

// Store is a sharded multi-version key-value map. All methods are safe for
// concurrent use; reads and iteration are lock-free (see internal/store).
type Store struct {
	eng *store.Engine[vclock.Vec, struct{}]

	approxReads atomic.Uint64 // snapshot reads served past a trimmed chain
}

// DefaultMaxVersions caps per-key chains; see store.DefaultMaxVersions.
const DefaultMaxVersions = store.DefaultMaxVersions

// New returns an empty store keeping at most maxVersions versions per key
// (0 means DefaultMaxVersions) with the default shard count.
func New(maxVersions int) *Store { return NewSharded(maxVersions, 0) }

// NewSharded is New with an explicit shard count (0 = auto from
// GOMAXPROCS).
func NewSharded(maxVersions, shards int) *Store {
	return &Store{eng: store.New[vclock.Vec, struct{}](maxVersions, shards)}
}

func toEngine(v Version) store.Version[vclock.Vec] {
	return store.Version[vclock.Vec]{Value: v.Value, TS: v.TS, Src: v.SrcDC, Extra: v.DV}
}

func fromEngine(ev *store.Version[vclock.Vec]) Version {
	return Version{Value: ev.Value, TS: ev.TS, SrcDC: ev.Src, DV: ev.Extra}
}

// ApproxReads returns how many snapshot reads were answered with the oldest
// retained version because the exact version had been trimmed.
func (s *Store) ApproxReads() uint64 { return s.approxReads.Load() }

// Register exposes the underlying engine's occupancy gauges plus the
// approximate-read counter under the given registry.
func (s *Store) Register(r *metrics.Registry, labels ...metrics.Label) {
	s.eng.Register(r, labels...)
	r.CounterFunc("kv_store_approx_reads_total",
		"Snapshot reads served with the oldest retained version because the exact one was trimmed.",
		func() float64 { return float64(s.approxReads.Load()) }, labels...)
}

// Install inserts version v of key, keeping the chain ordered and capped.
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
// it returns false — the key does not exist yet in this snapshot. Lock-free.
func (s *Store) ReadAtSnapshot(key string, sv vclock.Vec) (Version, bool) {
	ref := s.eng.Ref(key)
	// Fast path: the newest version is usually inside the snapshot (the GSS
	// lags writes by only a stabilization interval), and checking it through
	// the cached latest pointer skips the chain-header load.
	if v := ref.Latest(); v != nil && v.Extra.LEQ(sv) {
		return fromEngine(v), true
	}
	c := ref.View()
	if c.Len() == 0 {
		return Version{}, false
	}
	for i := len(c.Versions) - 1; i >= 0; i-- {
		if c.Versions[i].Extra.LEQ(sv) {
			return fromEngine(&c.Versions[i]), true
		}
	}
	if c.Trimmed {
		// The exact version was discarded; serve the oldest retained one
		// rather than blocking. Counted so experiments can prove this is
		// vanishingly rare.
		s.approxReads.Add(1)
		return fromEngine(&c.Versions[0]), true
	}
	return Version{}, false
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
