// Package store is the sharded multi-version storage engine shared by all
// three protocol families (Contrarian/Cure core, CC-LO, COPS).
//
// Each key holds a short chain of versions totally ordered by (TS, Src) —
// the last-writer-wins rule of Section 2.2. The families differ only in the
// per-version payload they attach (a dependency vector, dependency lists,
// invisibility marks) and in per-key bookkeeping (CC-LO's reader records),
// so the engine is generic over both: Engine[X, A] stores Version[X] chains
// plus one aux value A per key.
//
// Concurrency model:
//
//   - A published chain never changes as a reader sees it. A Chain header
//     is a window Versions[:len] onto a backing array, and the one invariant
//     everything rests on is: a slot inside any published len is never
//     written; slots past it belong to the writer. Writers publish a new
//     header through an atomic.Pointer, so latest-reads, exact-version
//     lookups, and full-store iteration (ForEach) are lock-free and never
//     block on — or are blocked by — writers. In particular WAL snapshot
//     emission iterates the store while installs proceed at full speed.
//   - The key→entry index is a per-shard open-addressing table with
//     set-once slots: keys are never deleted, so a slot, once published by
//     an atomic store, never changes, and readers probe with plain atomic
//     loads — one hash, no locks, no retries. Growing republishes a larger
//     table through an atomic pointer; readers holding the old table still
//     see every key inserted before the swap. The per-shard mutex serializes
//     writers (same key ⇒ same shard ⇒ serialized) and owns the shard's
//     allocators; readers never touch it.
//   - Adapters that must change a published version's Extra republish the
//     chain on a fresh backing array (Key.SetExtra). The one sanctioned
//     exception: mutating the *interior* of a reference type held by Extra
//     (e.g. inserting into a map) under the shard lock is safe as long as
//     no lock-free reader dereferences that interior state, because readers
//     copying the version struct only read the field's pointer word.
//
// Trimming: an engine may be built with a trim rule (NewTrimmed) — the
// adapter's statement of where the chain an install is about to publish may
// start, because no reader can still be served anything older. Contrarian
// starts it at the newest version visible at its stable frontier; CC-LO just
// below the oldest version still hiding from some ROT. The version cap
// remains as a hard ceiling for when the rule keeps more (no frontier yet, a
// stalled one, marks that outlive a burst of writes). Either way a chain only
// ever loses a prefix, and a trimmed chain takes no version below its oldest,
// so every discarded version precedes every retained one, and Chain.Trimmed
// tells a reader that found nothing old enough that the answer it wanted is
// gone.
//
// Memory model: an install of a key's newest version — the common case —
// writes the one slot past the published len and publishes a header one slot
// longer; when it trims, the window slides forward instead. Versions are
// copied only when the backing array is full, when a version lands
// mid-chain, and in SetExtra. Nothing is recycled: lock-free readers have
// unbounded lifetime, so reclamation is left to the GC. Values come from
// per-shard bump arenas and key entries from per-shard slabs (alloc.go), as
// do the backing arrays and chain headers of untrimmed chains of at most
// slabMaxAlloc versions — the cold majority — which collapses millions of
// tiny heap objects into a few large ones and is what cuts GC mark cost and
// pause times at 10M+ keys (benchfig -fig store). A chain that has been
// trimmed or has outgrown the slab is written often, so everything it
// allocates from then on — backing array, header and value — is private,
// because a chunk lives as long as its longest-lived tenant and a frequently
// written key would leave garbage in every one. A trimmed chain's array is
// sized to its live window (twice it, rounded up to a power of two), so the
// versions the window slid past stay reachable for at most about one
// window's worth of installs.
package store

import (
	"hash/maphash"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Version is one immutable version of an item. X is the family-specific
// payload (dependency vector, dep list + marks, ...).
type Version[X any] struct {
	Value []byte
	TS    uint64 // timestamp assigned at the source DC
	Src   uint8  // source DC id
	Extra X
}

// Before reports whether v precedes o in the total last-writer-wins order.
func (v *Version[X]) Before(o *Version[X]) bool {
	if v.TS != o.TS {
		return v.TS < o.TS
	}
	return v.Src < o.Src
}

// Chain is one key's published version chain. It is immutable as far as len
// reaches: no version in Versions may be written after publication.
// cap(Versions) may exceed the length — the slots past it are the writer's
// next installs — so holders index and re-slice within len and never append.
type Chain[X any] struct {
	Versions []Version[X] // ascending by (TS, Src)
	Trimmed  bool         // true once old versions have been discarded
}

// Len returns the number of retained versions. Safe on a nil chain.
func (c *Chain[X]) Len() int {
	if c == nil {
		return 0
	}
	return len(c.Versions)
}

// Latest returns the newest version, or nil if the chain is empty or nil.
func (c *Chain[X]) Latest() *Version[X] {
	if c == nil || len(c.Versions) == 0 {
		return nil
	}
	return &c.Versions[len(c.Versions)-1]
}

// Find returns the index of the version with identity (ts, src), or -1.
// Chains are short, so it scans from the tail (lookups are usually recent).
func (c *Chain[X]) Find(ts uint64, src uint8) int {
	if c == nil {
		return -1
	}
	for i := len(c.Versions) - 1; i >= 0; i-- {
		v := &c.Versions[i]
		if v.TS == ts && v.Src == src {
			return i
		}
		if v.TS < ts {
			break
		}
	}
	return -1
}

type entry[X, A any] struct {
	key  string
	hash uint64 // maphash of key; compared before the string on probes
	// chain is the key's published version chain; latest caches a pointer
	// to its newest version so latest-reads skip the chain-header hop (one
	// fewer dependent cache miss on the hottest read path). Both are
	// republished together under the shard lock; a reader may observe one
	// a publication ahead of the other, and either is a state that existed
	// during the read.
	chain  atomic.Pointer[Chain[X]]
	latest atomic.Pointer[Version[X]]
	aux    A // per-key family state; read and written only under the shard lock
}

// table is a shard's open-addressing key index. Slots are set-once (the
// engine never deletes keys): writers publish an entry with an atomic store
// under the shard lock, readers probe with atomic loads and no lock. The
// writer keeps occupancy under 3/4, so every probe terminates at an entry or
// an empty slot. len(slots) is a power of two.
type table[X, A any] struct {
	slots []atomic.Pointer[entry[X, A]]
	mask  uint64
}

// slot returns the probe start for hash h. The low 16 bits picked the shard
// (MaxShards), so the probe uses the remaining, independent bits.
func (t *table[X, A]) slot(h uint64) uint64 { return (h >> 16) & t.mask }

// probeEmpty returns the first free slot for hash h. Callers hold the shard
// lock and have ensured the key is absent.
func (t *table[X, A]) probeEmpty(h uint64) uint64 {
	i := t.slot(h)
	for t.slots[i].Load() != nil {
		i = (i + 1) & t.mask
	}
	return i
}

// initialTableSlots sizes a fresh shard's table.
const initialTableSlots = 16

func newTable[X, A any](n int) *table[X, A] {
	return &table[X, A]{
		slots: make([]atomic.Pointer[entry[X, A]], n),
		mask:  uint64(n - 1),
	}
}

type shard[X, A any] struct {
	tab     atomic.Pointer[table[X, A]]
	used    int        // occupied slots; written under mu
	mu      sync.Mutex // serializes writers; readers never take it
	arena   arena
	slab    slab[Version[X]]  // backing arrays; a key's next one only when it outgrows the last
	chains  slab[Chain[X]]    // chain headers of slab-backed chains, one per install
	entries slab[entry[X, A]] // one per key, permanent
	live    int               // versions retained by the shard's chains; under mu
	// cur is the view handed to the Update callback in flight. Writers are
	// serialized by mu, so one per shard serves every Update without a
	// per-call allocation.
	cur Key[X, A]
}

// grow republishes the shard's table at twice the size. Entries move by
// pointer; readers still holding the old table see every key inserted
// before the swap, which is all of them (the caller holds the shard lock).
func (sh *shard[X, A]) grow(old *table[X, A]) *table[X, A] {
	nt := newTable[X, A](2 * len(old.slots))
	for i := range old.slots {
		if en := old.slots[i].Load(); en != nil {
			nt.slots[nt.probeEmpty(en.hash)].Store(en)
		}
	}
	sh.tab.Store(nt)
	return nt
}

// Engine is a sharded multi-version key→chain map. All methods are safe for
// concurrent use.
type Engine[X, A any] struct {
	keys   atomic.Int64
	shards []shard[X, A]
	mask   uint64
	max    int     // per-key version cap: the hard ceiling
	trim   Trim[X] // the trim rule; nil: the cap alone
	seed   maphash.Seed
	// Reserved allocator bytes, engine-wide. Bumped only on chunk
	// reservation (alloc.go), so installs pay nothing for the accounting.
	arenaBytes atomic.Int64
	slabBytes  atomic.Int64
	refusals   atomic.Uint64 // reads Refuse turned away
}

// DefaultMaxVersions caps per-key chains of an engine built with neither a
// cap nor a trim rule of its own: a guess at what a reader can still ask
// for, kept by the family that has no trim rule (COPS).
const DefaultMaxVersions = 64

// Ceiling is the default cap of an engine with a trim rule. The rule decides
// what a chain keeps; the ceiling only bounds a chain while the rule keeps
// everything — before a frontier exists, while one stands still, while marks
// outlive a burst of writes to one key — so it is never reached in steady
// state. A reader that needed a version the ceiling dropped is refused.
const Ceiling = 1024

// Pending is the chain an install is about to publish — the retained
// versions with the new one in place, oldest first — as a trim rule sees
// it. It is a view: building it copies no version but the new one.
type Pending[X any] struct {
	vs []Version[X] // the published chain
	i  int          // where v lands
	v  Version[X]
	// Lo is where the engine starts the chain whatever the rule says — the
	// ceiling's floor, and past a version arriving below a trimmed chain. A
	// rule need not look below it: its answer is raised to Lo.
	Lo int
	// Now is the install's clock reading, as its caller passed it to
	// Key.Install (Engine.Install passes 0). The engine keeps no clock: a
	// rule that ages what versions carry takes the time from here.
	Now int64
}

// Len returns the pending chain's length.
func (p *Pending[X]) Len() int { return len(p.vs) + 1 }

// Version returns the pending chain's j-th version, oldest first.
func (p *Pending[X]) Version(j int) *Version[X] {
	switch {
	case j < p.i:
		return &p.vs[j]
	case j == p.i:
		return &p.v
	}
	return &p.vs[j-1]
}

// Trim is an engine's trim rule: the index at which the pending chain may
// start, every version below it being one no reader can still be served.
// The engine keeps at least the newest version and at most the cap,
// whatever the rule answers. It runs under the shard lock, concurrently on
// different shards.
type Trim[X any] func(p Pending[X]) int

// DefaultShards derives the shard count from GOMAXPROCS: enough shards that
// writers rarely collide (16× the parallelism), clamped to [16, 1024] and
// rounded up to a power of two so shard selection is a mask.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0) * 16
	if n < 16 {
		n = 16
	}
	if n > 1024 {
		n = 1024
	}
	return ceilPow2(n)
}

// MaxShards bounds operator-supplied shard counts.
const MaxShards = 1 << 16

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// New returns an empty engine keeping at most maxVersions versions per key
// (0 means DefaultMaxVersions) across `shards` shards (0 means
// DefaultShards; rounded up to a power of two, capped at MaxShards).
func New[X, A any](maxVersions, shards int) *Engine[X, A] {
	return NewTrimmed[X, A](maxVersions, shards, nil)
}

// NewTrimmed is New with a trim rule: every install starts the chain where
// trim says it may (see the package comment), and maxVersions (0 means
// Ceiling) becomes the ceiling for when the rule keeps more.
func NewTrimmed[X, A any](maxVersions, shards int, trim Trim[X]) *Engine[X, A] {
	if maxVersions <= 0 {
		maxVersions = DefaultMaxVersions
		if trim != nil {
			maxVersions = Ceiling
		}
	}
	if shards <= 0 {
		shards = DefaultShards()
	}
	shards = ceilPow2(shards)
	if shards > MaxShards {
		shards = MaxShards
	}
	e := &Engine[X, A]{
		shards: make([]shard[X, A], shards),
		mask:   uint64(shards - 1),
		max:    maxVersions,
		trim:   trim,
		seed:   maphash.MakeSeed(),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.tab.Store(newTable[X, A](initialTableSlots))
		sh.arena.bytes = &e.arenaBytes
		sh.slab.init(&e.slabBytes)
		sh.chains.init(&e.slabBytes)
		sh.entries.init(&e.slabBytes)
	}
	return e
}

// MemBytes returns the engine's reserved allocator bytes: value-arena bytes
// and slab bytes (version backing arrays, slab chain headers, key entries).
// Reserved means handed to the engine by the Go allocator since it was
// built — every chunk, every oversized value and every private backing
// array, counted once when allocated and never subtracted: the GC frees a
// chunk or an array once nothing published references it, which this
// accounting does not observe. (The private headers and values of trimmed
// or long chains are not counted; that would cost an atomic per install.)
// Both numbers
// bound retained memory from above and grow with write traffic; slab bytes
// over Versions() is the reservation each retained version has cost so far.
func (e *Engine[X, A]) MemBytes() (arena, slab int64) {
	return e.arenaBytes.Load(), e.slabBytes.Load()
}

// Versions returns the number of versions the engine's chains retain. It
// takes each shard's lock in turn, so the sum is exact per shard and the
// call is for scrapes and tests, not for a hot path.
func (e *Engine[X, A]) Versions() int {
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += sh.live
		sh.mu.Unlock()
	}
	return n
}

// Register exposes the engine's occupancy gauges under the given registry
// with the caller's labels (family, partition). All series are computed at
// scrape time from counters the engine already maintains.
func (e *Engine[X, A]) Register(r *metrics.Registry, labels ...metrics.Label) {
	r.GaugeFunc("kv_store_keys", "Keys present (including aux-only keys).",
		func() float64 { return float64(e.keys.Load()) }, labels...)
	r.GaugeFunc("kv_store_shards", "Shards in use.",
		func() float64 { return float64(len(e.shards)) }, labels...)
	r.GaugeFunc("kv_store_arena_bytes", "Value-arena bytes reserved (chunks plus oversized values).",
		func() float64 { return float64(e.arenaBytes.Load()) }, labels...)
	r.GaugeFunc("kv_store_slab_bytes", "Bytes reserved so far for version backing arrays (slab chunks and private arrays), chain headers, and key entries.",
		func() float64 { return float64(e.slabBytes.Load()) }, labels...)
	r.GaugeFunc("kv_store_versions", "Versions retained across all chains; kv_store_slab_bytes over this is the reservation per live version.",
		func() float64 { return float64(e.Versions()) }, labels...)
	r.CounterFunc("kv_store_snapshot_refusals_total",
		"Snapshot reads refused because the version the snapshot needed was trimmed (the reader retries at a fresher snapshot).",
		func() float64 { return float64(e.refusals.Load()) }, labels...)
}

// Refuse is the verdict on a read that found nothing on c it may be served.
// On a trimmed chain that cannot be told from "what it wanted was trimmed",
// so the read must be refused, never approximated: Refuse counts it and
// returns true. On an untrimmed chain nothing was ever dropped, and the
// answer (not found) is exact.
func (e *Engine[X, A]) Refuse(c *Chain[X]) bool {
	if !c.Trimmed {
		return false
	}
	e.refusals.Add(1)
	return true
}

// Refusals returns how many reads Refuse turned away.
func (e *Engine[X, A]) Refusals() uint64 { return e.refusals.Load() }

// find returns key's entry (h is its maphash) or nil, lock-free.
func (e *Engine[X, A]) find(h uint64, key string) *entry[X, A] {
	t := e.shards[h&e.mask].tab.Load()
	for i := t.slot(h); ; i = (i + 1) & t.mask {
		en := t.slots[i].Load()
		if en == nil {
			return nil
		}
		if en.hash == h && en.key == key {
			return en
		}
	}
}

// NumShards returns the shard count in use.
func (e *Engine[X, A]) NumShards() int { return len(e.shards) }

// MaxVersions returns the per-key chain cap (the ceiling, under a trim
// predicate).
func (e *Engine[X, A]) MaxVersions() int { return e.max }

// View returns key's current chain without locking, or nil if the key has
// never been written. The chain is an immutable snapshot: it remains valid
// (and frozen) indefinitely, however long the caller holds it.
func (e *Engine[X, A]) View(key string) *Chain[X] {
	if en := e.find(maphash.String(e.seed, key), key); en != nil {
		return en.chain.Load()
	}
	return nil
}

// Latest returns key's newest version without locking, or nil.
func (e *Engine[X, A]) Latest(key string) *Version[X] {
	if en := e.find(maphash.String(e.seed, key), key); en != nil {
		return en.latest.Load()
	}
	return nil
}

// Has reports whether the version of key identified by (ts, src) is
// installed — the dependency-check predicate of the dependency-list
// families. The identity is EXACT, not "any newer version": a same-timestamp
// version from a DIFFERENT DC is a different version entirely (Lamport
// timestamps collide across DCs), and a newer CONCURRENT version can pass a
// ≥ check while being hidden from some reader, which would let a dependent
// become readable before the one version that reader could consistently be
// served. On a trimmed chain a version LWW-below the oldest retained one
// counts as installed: the trim dropped it, or it arrives below the chain
// and is dropped at once (see floor), so a dependent has nothing to wait
// for. On an untrimmed chain "below the oldest" just means never installed.
// Lock-free.
func (e *Engine[X, A]) Has(key string, ts uint64, src uint8) bool {
	c := e.View(key)
	if c.Len() == 0 {
		return false
	}
	if want := (Version[X]{TS: ts, Src: src}); c.Trimmed && want.Before(&c.Versions[0]) {
		return true
	}
	return c.Find(ts, src) >= 0
}

// Ref is a lock-free handle to one key's published state: one index probe,
// then as many Latest/View loads as the caller needs. The zero Ref (from a
// key that was never written) returns nil from both.
type Ref[X, A any] struct{ en *entry[X, A] }

// Ref returns a handle to key's state, without locking.
func (e *Engine[X, A]) Ref(key string) Ref[X, A] {
	return Ref[X, A]{e.find(maphash.String(e.seed, key), key)}
}

// Latest returns the newest version, or nil.
func (r Ref[X, A]) Latest() *Version[X] {
	if r.en == nil {
		return nil
	}
	return r.en.latest.Load()
}

// View returns the current chain, or nil.
func (r Ref[X, A]) View() *Chain[X] {
	if r.en == nil {
		return nil
	}
	return r.en.chain.Load()
}

// Keys returns the number of keys present (including keys that hold aux
// state but no versions yet).
func (e *Engine[X, A]) Keys() int { return int(e.keys.Load()) }

// ForEach calls fn with every key's current chain, skipping keys with no
// versions, until fn returns false. Iteration is lock-free: fn observes
// immutable chain snapshots while writers proceed concurrently, so fn may
// block for as long as it likes (e.g. on disk I/O during WAL snapshot
// emission) without stalling installs. Keys written mid-iteration may or may
// not be observed; a key is never observed twice (each shard's table holds
// it in exactly one slot, and shards partition the key space).
func (e *Engine[X, A]) ForEach(fn func(key string, c *Chain[X]) bool) {
	for s := range e.shards {
		t := e.shards[s].tab.Load()
		for i := range t.slots {
			en := t.slots[i].Load()
			if en == nil {
				continue
			}
			c := en.chain.Load()
			if c == nil || len(c.Versions) == 0 {
				continue
			}
			if !fn(en.key, c) {
				return
			}
		}
	}
}

// Seal marks every chain trimmed: what lies below a chain's oldest version
// counts as discarded (Has) and is dropped if it arrives (floor), never as a
// version still to come. Recovery seals what it replayed, before serving. A
// WAL snapshot keeps only the versions each chain still needed, so an
// untrimmed recovered chain would claim the versions below its oldest were
// never installed, and a dependency on one would be waited for forever.
func (e *Engine[X, A]) Seal() {
	for s := range e.shards {
		sh := &e.shards[s]
		sh.mu.Lock()
		t := sh.tab.Load()
		for i := range t.slots {
			en := t.slots[i].Load()
			if en == nil {
				continue
			}
			if c := en.chain.Load(); c.Len() > 0 && !c.Trimmed {
				vs := e.backing(sh, len(c.Versions), true)
				copy(vs, c.Versions)
				sh.publish(en, vs, true)
			}
		}
		sh.mu.Unlock()
	}
}

// Key is the locked view of one key's state, valid only inside an Update
// callback.
type Key[X, A any] struct {
	e  *Engine[X, A]
	sh *shard[X, A]
	en *entry[X, A]
}

// Chain returns the key's current chain (nil if never written). The returned
// chain is immutable and stays valid after the lock is released.
func (k *Key[X, A]) Chain() *Chain[X] { return k.en.chain.Load() }

// Aux returns the key's aux state. It must not be retained or dereferenced
// after the Update callback returns.
func (k *Key[X, A]) Aux() *A { return &k.en.aux }

// Install inserts v into the chain, keeping it ordered by (TS, Src) and
// trimmed by the engine's rule (see the package comment), which reads now as
// Pending.Now. v.Value is copied; the caller's slice is not retained.
//
// It returns the index of v in the resulting chain (-1 if v was older than
// what the trim keeps and was discarded at once), whether v is now the
// newest version, and whether an identical (TS, Src) version already
// existed — in which case the chain is unchanged, idx points at the existing
// version, and newest reports whether that version is the newest.
func (k *Key[X, A]) Install(v Version[X], now int64) (idx int, newest, dup bool) {
	return k.e.installLocked(k.sh, k.en, v, now)
}

// installLocked is the install core; the caller holds sh.mu and en belongs
// to sh.
func (e *Engine[X, A]) installLocked(sh *shard[X, A], en *entry[X, A], v Version[X], now int64) (idx int, newest, dup bool) {
	old := en.chain.Load()
	var vs []Version[X]
	trimmed := false
	if old != nil {
		vs, trimmed = old.Versions, old.Trimmed
	}
	// Find the insertion point from the tail: installs are usually newest.
	i := len(vs)
	for i > 0 && v.Before(&vs[i-1]) {
		i--
	}
	if i > 0 && vs[i-1].TS == v.TS && vs[i-1].Src == v.Src {
		return i - 1, i == len(vs), true
	}
	n := len(vs) + 1
	drop := e.floor(vs, trimmed, i, v, now)
	if i < drop {
		// Older than what the trim keeps: v is discarded unstored, along with
		// the versions below the floor. Readers tell "grew" from "dropped
		// something" by Trimmed, and this did drop.
		if keep := vs[drop-1:]; len(keep) < len(vs) || !trimmed {
			sh.live -= len(vs) - len(keep)
			sh.publish(en, keep, true)
		}
		return -1, false, false
	}
	trimmed = trimmed || drop > 0
	var nvs []Version[X]
	if i == len(vs) && cap(vs) > len(vs) {
		// Newest version and the backing array has room: write the slot past
		// every published len and slide the window over it.
		nvs = vs[drop:n]
	} else {
		nvs = e.backing(sh, n-drop, trimmed)
		copy(nvs, vs[drop:i])
		copy(nvs[i-drop+1:], vs[i:])
	}
	v.Value = sh.arena.copy(v.Value, privateTier(nvs, trimmed))
	nvs[i-drop] = v
	sh.live += len(nvs) - len(vs)
	sh.publish(en, nvs, trimmed)
	return i - drop, i == n-1, false
}

// floor returns how many of the oldest versions of the n = len(vs)+1 long
// chain that inserting v at i would make the trim drops: what the rule
// allows, at least what the ceiling demands, never the newest version. A
// version arriving below the oldest one a trimmed chain retains may belong
// below versions already discarded, where keeping it would open a hole a
// reader could fall through to an older answer than the exact one: it is
// dropped whatever the rule says.
func (e *Engine[X, A]) floor(vs []Version[X], trimmed bool, i int, v Version[X], now int64) int {
	n := len(vs) + 1
	lo := max(n-e.max, 0)
	if trimmed && i == 0 {
		lo = max(lo, 1)
	}
	if e.trim == nil {
		return lo
	}
	return min(max(lo, e.trim(Pending[X]{vs: vs, i: i, v: v, Lo: lo, Now: now})), n-1)
}

// backing returns a zeroed chain of n versions on a new backing array with
// room to grow. An untrimmed chain's capacity is the next power of two, so a
// growing chain is copied a constant number of times per version, and one
// that fits a slab array gets one — the cold majority of keys never needs
// another. A trimmed chain's window slides, so its array is twice the
// window (at least 4 slots): the window gets about its own length in
// installs before the next copy, and what it slid past stays reachable for
// no longer. Every array but a slab one is private, so the GC frees exactly
// what a frequently written key leaves behind.
func (e *Engine[X, A]) backing(sh *shard[X, A], n int, trimmed bool) []Version[X] {
	c := ceilPow2(n)
	if trimmed {
		c = max(4, ceilPow2(2*n))
	} else if c <= slabMaxAlloc {
		return sh.slab.alloc(c)[:n]
	}
	e.slabBytes.Add(int64(c) * sh.slab.elem)
	return make([]Version[X], n, c)
}

// privateTier reports whether a chain on vs is in the private tier: trimmed, or
// past what the slab serves. Such a key is written often, so its headers and
// values are private allocations too, freed object by object.
func privateTier[X any](vs []Version[X], trimmed bool) bool {
	return trimmed || cap(vs) > slabMaxAlloc
}

// publish makes vs (non-empty) en's chain. The caller holds sh.mu.
//
// A superseded header in a slab chunk stays reachable for as long as any
// neighbour is current, and keeps its backing array reachable with it. That
// is harmless for a key written a handful of times and is what pinned most
// of the heap for keys written constantly, so a private-tier chain gets
// private headers.
func (sh *shard[X, A]) publish(en *entry[X, A], vs []Version[X], trimmed bool) {
	var nc *Chain[X]
	if privateTier(vs, trimmed) {
		nc = new(Chain[X])
	} else {
		nc = sh.chains.one()
	}
	nc.Versions, nc.Trimmed = vs, trimmed
	en.chain.Store(nc)
	en.latest.Store(&vs[len(vs)-1])
}

// SetExtra republishes the chain with version idx's Extra replaced by x.
// This is the only sound way to change a field of a published version:
// assigning through Chain().Versions[idx].Extra would race with lock-free
// readers copying the version struct.
func (k *Key[X, A]) SetExtra(idx int, x X) {
	old := k.en.chain.Load()
	nvs := k.e.backing(k.sh, len(old.Versions), old.Trimmed)
	copy(nvs, old.Versions)
	nvs[idx].Extra = x
	k.sh.publish(k.en, nvs, old.Trimmed)
}

// entryLocked returns key's entry, creating it (empty chain, zero aux) when
// create is set. The caller holds sh.mu; a same-key writer therefore holds
// the same lock, so the probe-then-publish pair cannot double-create.
func (e *Engine[X, A]) entryLocked(sh *shard[X, A], h uint64, key string, create bool) *entry[X, A] {
	t := sh.tab.Load()
	i := t.slot(h)
	for {
		en := t.slots[i].Load()
		if en == nil {
			break
		}
		if en.hash == h && en.key == key {
			return en
		}
		i = (i + 1) & t.mask
	}
	if !create {
		return nil
	}
	en := sh.entries.one()
	en.key, en.hash = key, h
	if (sh.used+1)*4 > len(t.slots)*3 {
		t = sh.grow(t)
		i = t.probeEmpty(h)
	}
	t.slots[i].Store(en)
	sh.used++
	e.keys.Add(1)
	return en
}

// Update runs fn with key's state locked against concurrent writers on the
// same shard. If create is false and the key has never been seen, fn is not
// called and Update returns false. With create true the key's entry (empty
// chain, zero aux) is created on demand.
func (e *Engine[X, A]) Update(key string, create bool, fn func(k *Key[X, A])) bool {
	h := maphash.String(e.seed, key)
	sh := &e.shards[h&e.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	en := e.entryLocked(sh, h, key, create)
	if en == nil {
		return false
	}
	sh.cur = Key[X, A]{e: e, sh: sh, en: en}
	fn(&sh.cur)
	return true
}

// Install inserts version v of key and reports whether v is now the newest
// version of key (duplicates report the existing version's position, so a
// re-install of the current newest version still reports true). Equivalent
// to Update+Key.Install at clock reading 0, but allocation-free on the call
// itself — the install fast path skips the callback machinery.
func (e *Engine[X, A]) Install(key string, v Version[X]) (newest bool) {
	h := maphash.String(e.seed, key)
	sh := &e.shards[h&e.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	en := e.entryLocked(sh, h, key, true)
	_, newest, _ = e.installLocked(sh, en, v, 0)
	return
}
