// Package cclo implements CC-LO, the latency-optimal causal-consistency
// design of COPS-SNOW as characterized in Sections 3 and 5.2 of the paper.
//
// ROTs are one round, one version and nonblocking. The price is paid on
// writes: every PUT performs the "readers check", interrogating the
// partition of each causal dependency for the ROTs that read a version of
// that dependency now superseded ("old readers"), and marks the written
// version invisible to each of them before it becomes readable. A read by
// such a ROT is served the newest version NOT marked invisible to it,
// preserving causally consistent snapshots without coordination on the
// read path.
//
// Invisibility is tracked per VERSION, not as a per-key time cutoff: a
// time cutoff either fails to hide a dependent version whose origin
// timestamp trails the reader's local clock (per-partition Lamport clocks
// drift apart under geo-replication — the Figure 1 anomaly reappears), or,
// if clamped, also hides CONCURRENT versions the session may already have
// observed, breaking read-your-writes and monotonic reads. Marking exactly
// the dependent versions hides exactly what causality requires.
//
// The implementation includes the two optimizations the paper applied to
// its CC-LO code base (§5.2): reader entries are garbage-collected 500 ms
// after insertion, and a readers-check response carries at most one ROT id
// per client (the most recent, valid because clients issue one ROT at a
// time).
package cclo

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"
	"time"

	storeeng "repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

// loExtra is the per-version payload CC-LO attaches to the shared engine's
// versions: the dependency list (locally originated versions on a server
// with a WAL only — the snapshot serializer is its one reader, emitting it
// so a crash-recovered re-enqueue still carries the deps the receiving DC's
// dependency check needs) and the set of ROTs the version is invisible to.
//
// Mutation rules (see internal/store): the set BEHIND the invisible pointer
// may be mutated under the shard lock — lock-free readers (latest,
// hasVersion, forEachLatest) never look through it — but the invisible FIELD
// of a published version must never be reassigned; when it is nil and marks
// must land, the chain is republished via SetExtra.
type loExtra struct {
	deps      []wire.LoDep
	invisible *slotSet
}

// loVersion is one version of a key under CC-LO as the adapter's callers see
// it: Lamport timestamp plus source DC for last-writer-wins convergence.
type loVersion struct {
	value []byte
	ts    uint64
	srcDC uint8
	deps  []wire.LoDep // install input only: kept as loExtra.deps, never read back
}

// slot is one tracked ROT of a key: the ROT id, the logical time of its
// read, the timestamp of the version it was served (what "old" is judged
// against), and when the entry was created, in nanoseconds on the store's
// clock (for GC).
type slot struct {
	rotID uint64
	t     uint64
	vts   uint64
	at    int64
}

func (e slot) client() uint64 { return e.rotID >> 32 }

// slotSet is a set of tracked ROTs ordered by client with at most ONE slot
// per client — the paper's §5.2 one-id-per-client rule, enforced where
// entries are born. It is sound because a client runs one ROT at a time and
// a fence retry takes a fresh, higher id: once a client's newer ROT shows up,
// every older ROT of that client has finished all its reads, so nothing needs
// hiding from it any more.
type slotSet []slot

// prefer picks between two live slots of one client: the higher ROT id wins;
// between two sightings of the SAME ROT the earlier read time wins (the
// safest cutoff), the set's own slot on a tie.
func prefer(own, e slot) slot {
	if own.rotID > e.rotID || (own.rotID == e.rotID && own.t <= e.t) {
		return own
	}
	return e
}

// anyVTS disables absorb's served-version filter.
const anyVTS = ^uint64(0)

// search returns the index of client's slot, or where it would be inserted.
// (Hand-rolled: it sits under every read, where slices.BinarySearchFunc's
// comparator call doubles the cost — 59 vs 134 ns per read at 256 clients.)
func (s slotSet) search(client uint64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].client() < client {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hides reports whether the set holds a live mark for exactly rotID. A nil
// set hides nothing.
func (s *slotSet) hides(rotID uint64, cutoff int64) bool {
	if s == nil {
		return false
	}
	i := s.search(rotID >> 32)
	return i < len(*s) && (*s)[i].rotID == rotID && (*s)[i].at >= cutoff
}

// expire drops, in place, the slots created before cutoff. A set with
// nothing to drop — the usual case — is only read; one that expires whole
// releases its backing array.
func (s *slotSet) expire(cutoff int64) {
	set := *s
	w := 0
	for w < len(set) && set[w].at >= cutoff {
		w++
	}
	if w == len(set) {
		return
	}
	for _, e := range set[w+1:] {
		if e.at >= cutoff {
			set[w] = e
			w++
		}
	}
	if w == 0 {
		*s = nil
		return
	}
	*s = set[:w]
}

// put records a read: e takes its client's slot unless that slot holds a
// live, newer ROT of the same client (a straggler leg of an abandoned ROT).
// Refreshing a client's slot is a binary search and one store. A client's
// first slot has to shift the tail anyway, so that is where expired slots are
// dropped: the set never holds more than the clients seen within one GC
// window plus whatever expired since the last insertion or readers check.
func (s slotSet) put(e slot, cutoff int64) slotSet {
	i := s.search(e.client())
	if i < len(s) && s[i].client() == e.client() {
		if e.rotID >= s[i].rotID || s[i].at < cutoff {
			s[i] = e
		}
		return s
	}
	s.expire(cutoff)
	return slices.Insert(s, s.search(e.client()), e)
}

// stamp restarts the GC window of every slot.
func (s slotSet) stamp(at int64) slotSet {
	for i := range s {
		s[i].at = at
	}
	return s
}

// absorb merges, in place, the slots of src whose served version trails
// maxVTS into s, keeping one slot per client. Neither side may hold expired
// slots. Both are ordered by client, so this is one backward pass over s's
// grown backing array: no map, no scratch.
func (s slotSet) absorb(src slotSet, maxVTS uint64) slotSet {
	if len(src) == 0 {
		return s
	}
	n := len(s)
	s = slices.Grow(s, len(src))[:n+len(src)]
	i, w := n-1, len(s) // s[w:] is merged output; s[:i+1] is still to merge
	for j := len(src) - 1; j >= 0; j-- {
		e := src[j]
		if e.vts >= maxVTS {
			continue
		}
		for i >= 0 && s[i].client() > e.client() {
			w--
			s[w] = s[i]
			i--
		}
		if i >= 0 && s[i].client() == e.client() {
			e = prefer(s[i], e)
			i--
		}
		w--
		s[w] = e
	}
	// s[:i+1] never moved; close the gap the filter and the ties left.
	return s[:i+1+copy(s[i+1:], s[w:])]
}

// loAux is the per-key reader state, read and written only under the shard
// lock (it is the aux slot of the shared engine's key entry).
type loAux struct {
	// readers holds the ROTs that have read the *current* latest version,
	// with the logical time of the read. They become old readers when a
	// newer version is installed.
	readers slotSet

	// oldReaders holds ROTs known to have read superseded versions; it is
	// what a readers check on this key returns (filtered by the version
	// each actually read).
	oldReaders slotSet
}

// Shorthand for the engine instantiation backing CC-LO.
type (
	loEngine = storeeng.Engine[loExtra, loAux]
	loChain  = storeeng.Chain[loExtra]
	loEngVer = storeeng.Version[loExtra]
	loKeyRef = storeeng.Key[loExtra, loAux]
)

// loStore is the CC-LO partition storage: a thin adapter over the shared
// engine (internal/store). serve/collectOldReaders/install/addMarks mutate
// reader state and run under the per-shard write lock; latest, hasVersion
// and forEachLatest are lock-free.
type loStore struct {
	eng      *loEngine
	gcWindow time.Duration
	// base is the zero of the store's nanosecond clock: slots keep their
	// creation time as an int64 offset from it (monotonic, 8 bytes) instead
	// of a 24-byte time.Time.
	base time.Time
	// keepDeps keeps each installed version's dependency list: only a
	// server with a WAL snapshots them.
	keepDeps bool
	// replaying holds the trim off while recovery replays the log: replayed
	// installs carry no marks, which addMarks restores only afterwards.
	// Set and cleared before the server serves anything.
	replaying bool

	refusals atomic.Uint64 // ROT reads refused with errTrimmed
}

// errTrimmed is serve's refusal: every version a trimmed chain retains is
// hidden from the ROT, so the one it must be served is gone.
var errTrimmed = errors.New("cclo: the version the ROT must be served was trimmed")

func newLoStore(shards int, gcWindow time.Duration, keepDeps bool) *loStore {
	s := &loStore{gcWindow: gcWindow, base: time.Now(), keepDeps: keepDeps}
	s.eng = storeeng.NewTrimmed[loExtra, loAux](0, shards, s.floor)
	return s
}

// nanos places now on the store's clock.
func (s *loStore) nanos(now time.Time) int64 { return int64(now.Sub(s.base)) }

// floor is the engine's trim rule: a chain starts just below its oldest
// version carrying a live mark — that one hides from no ROT, so nothing
// older can be served — or, with no live mark anywhere, at its newest
// version. Every live mark is kept, so collectOldReaders still propagates
// through the marks of non-latest versions; the mark sets the scan finds
// expired are released on the way. The scan starts below p.Lo: a marked
// version the engine drops there hands its marks to the oldest version kept
// (see install), so they hold the chain from that version on.
func (s *loStore) floor(p storeeng.Pending[loExtra]) int {
	if s.replaying {
		return 0
	}
	cutoff := p.Now - int64(s.gcWindow)
	for j := 0; j < p.Len(); j++ {
		if inv := p.Version(j).Extra.invisible; inv != nil {
			inv.expire(cutoff)
			if len(*inv) > 0 {
				return j - 1
			}
		}
	}
	return p.Len() - 1
}

// serve serves a ROT read of key: the newest version not marked invisible
// to rotID, or the zero KV if the key does not exist. It records rotID as a
// reader of the version it was served at logical time t. When every version
// a trimmed chain retains hides from rotID it refuses with errTrimmed: the
// trim keeps the version below the oldest live mark, so that happens only
// when marks landed on a trimmed chain's oldest version afterwards (a
// re-delivered update) or the ceiling dropped versions.
func (s *loStore) serve(key string, rotID uint64, t uint64, now time.Time) (kv wire.KV, err error) {
	at := s.nanos(now)
	cutoff := at - int64(s.gcWindow)
	s.eng.Update(key, true, func(k *loKeyRef) {
		aux := k.Aux()
		c := k.Chain()
		if c.Len() == 0 {
			// Record the negative read. "No version" is an observation too:
			// when the key's first version arrives, this ROT must surface as
			// its old reader (vts 0), or a write depending on that version
			// could become readable next to this ROT's "not found" — the
			// Figure 1 anomaly with a missing key in the role of the stale
			// permissions.
			aux.readers = aux.readers.put(slot{rotID: rotID, t: t, vts: 0, at: at}, cutoff)
			return
		}
		vs := c.Versions
		// A key nobody installs on again is never trimmed again, so reads
		// release its newest version's marks. An install stamps its marks
		// together, so an expired first slot is the cue to pay for the pass.
		if inv := vs[len(vs)-1].Extra.invisible; inv != nil && len(*inv) > 0 && (*inv)[0].at < cutoff {
			inv.expire(cutoff)
		}
		for i := len(vs) - 1; i >= 0; i-- {
			v := &vs[i]
			if v.Extra.invisible.hides(rotID, cutoff) {
				continue
			}
			if i == len(vs)-1 {
				// Served the latest: record the read so a future write that
				// supersedes it can find this ROT among its old readers.
				aux.readers = aux.readers.put(slot{rotID: rotID, t: t, vts: v.TS, at: at}, cutoff)
			}
			kv = wire.KV{Value: v.Value, TS: v.TS, Src: v.Src}
			return
		}
		// Every retained version is invisible to this ROT. On an untrimmed
		// chain nothing was ever dropped: the ROT genuinely predates the
		// key's FIRST version (it probed the key while missing and a
		// dependent write collected it), so the only consistent answer is
		// "not found". On a trimmed chain that cannot be told from "its
		// version was trimmed", so the read is refused, never approximated.
		if c.Trimmed {
			s.refusals.Add(1)
			err = errTrimmed
		}
	})
	return kv, err
}

// collectOldReaders merges into out the old readers of key relevant to a
// dependency on version depTS — every ROT whose served version of this key
// trails depTS, i.e. every ROT that would be inconsistent if it now saw a
// version depending on key@depTS — and returns the grown out with the number
// of live slots it looked at. Three sources, all filtered precisely (an
// over-collected ROT would be hidden from versions it may legitimately have
// observed, breaking its session guarantees):
//
//   - oldReaders: ROTs that read a since-superseded latest; collected when
//     the version they read (vts) trails depTS.
//   - readers: ROTs on the current latest; collected only when the latest
//     itself trails depTS (the dependency has not replicated here yet).
//   - invisibility marks: a ROT hidden from every retained version at or
//     above depTS was served something older — the transitive propagation
//     that keeps a rewound ROT visible to later dependent writes.
//
// Expired slots are dropped from every set the check walks.
func (s *loStore) collectOldReaders(key string, depTS uint64, now time.Time, out slotSet) (slotSet, int) {
	cutoff := s.nanos(now) - int64(s.gcWindow)
	scanned := 0
	s.eng.Update(key, false, func(k *loKeyRef) {
		aux := k.Aux()
		aux.oldReaders.expire(cutoff)
		scanned += len(aux.oldReaders)
		out = out.absorb(aux.oldReaders, depTS)
		// A probe-heavy dependency key whose latest is current is never
		// collected from, so the expiry pass is what keeps its set bounded.
		aux.readers.expire(cutoff)
		c := k.Chain()
		if l := c.Latest(); l == nil || l.TS < depTS {
			scanned += len(aux.readers)
			out = out.absorb(aux.readers, anyVTS)
		}
		// Invisibility-derived old readers: every ROT marked on ANY version of
		// this key missed something in that version's causal past, so it is
		// conservatively treated as an old reader of the dependency too. The
		// conservatism is what keeps transitive propagation unbroken — a
		// concurrent newer version can mask a ROT's miss timestamp-wise
		// without covering the missed version's causal past on OTHER keys —
		// and it is session-safe: marks only ever exist on versions installed
		// during the marked ROT's own lifetime, so the extra hiding can never
		// take back state its session observed before. Chains keep only what
		// live marks need (see floor) and marks are one per client, so this
		// walk is small — and it is write-path cost, which is exactly where
		// CC-LO pays (§3).
		if c != nil {
			for i := range c.Versions {
				if inv := c.Versions[i].Extra.invisible; inv != nil {
					inv.expire(cutoff)
					scanned += len(*inv)
					out = out.absorb(*inv, anyVTS)
				}
			}
		}
	})
	return out, scanned
}

// install inserts a version of key, moves the key's current readers to its
// old readers, and marks the version invisible to the collected old
// readers of the PUT's dependencies. It takes ownership of collected (a
// slotSet; nil for none). It returns true if the version is now the latest.
func (s *loStore) install(key string, v loVersion, collected slotSet, now time.Time) bool {
	at := s.nanos(now)
	cutoff := at - int64(s.gcWindow)
	newest := false
	s.eng.Update(key, true, func(k *loKeyRef) {
		ev := loEngVer{Value: v.value, TS: v.ts, Src: v.srcDC}
		if s.keepDeps {
			ev.Extra.deps = v.deps
		}
		if len(collected) > 0 {
			marks := collected.stamp(at) // boxed only when there are marks
			ev.Extra.invisible = &marks
		}
		idx, isNewest, dup := k.Install(ev, at)
		if dup || idx < 0 {
			if len(collected) > 0 {
				// A re-delivered update (lost ack, or a retry against a
				// recovered replica) arrives with freshly collected old
				// readers; the marks must land on the existing version or the
				// retry's readers check was for nothing and a rewound ROT
				// could see the version anyway. A version the trim dropped on
				// arrival — it landed below a trimmed chain — hands its marks
				// to the oldest version kept: collectOldReaders must still
				// propagate them, and hiding one more version from the ROTs
				// they name can only turn a read into a refusal.
				s.mark(k, max(idx, 0), collected, cutoff)
			}
			return
		}
		newest = isNewest
		aux := k.Aux()
		if newest && len(aux.readers) > 0 {
			// The previous latest version is now superseded: its readers are
			// old readers from here on, with a fresh GC window. Expiring both
			// sides first keeps an install-heavy key nothing depends on (no
			// readers check ever walks it) bounded by one window of clients.
			aux.oldReaders.expire(cutoff)
			aux.readers.expire(cutoff)
			aux.oldReaders = aux.oldReaders.absorb(aux.readers.stamp(at), anyVTS)
			aux.readers = aux.readers[:0]
		}
	})
	return newest
}

// installRecord installs the version a WAL record describes — committed,
// replayed or preloaded — hidden from readers. (A replicated version's
// record carries no deps; see loExtra.deps.)
func (s *loStore) installRecord(rec wal.Record, readers []wire.ReaderEntry) {
	s.install(rec.Key, loVersion{value: rec.Value, ts: rec.TS, srcDC: rec.SrcDC, deps: rec.Deps},
		slotsFromWire(make(slotSet, 0, len(readers)), readers), time.Now())
}

// mark lands marks (ordered, one per client, owned by the caller) on the
// published version at idx of k's chain.
func (s *loStore) mark(k *loKeyRef, idx int, marks slotSet, cutoff int64) {
	ex := &k.Chain().Versions[idx]
	if ex.Extra.invisible == nil {
		// The published version has no mark set to grow in place;
		// republish the chain with one (never assign the field).
		k.SetExtra(idx, loExtra{deps: ex.Extra.deps, invisible: &marks})
		return
	}
	ex.Extra.invisible.expire(cutoff)
	*ex.Extra.invisible = ex.Extra.invisible.absorb(marks, anyVTS)
}

// addMarks rebuilds invisibility marks on the version of key identified by
// (ts, src) — WAL recovery replaying persisted old-reader records. Marks
// land stamped now: the original insertion time did not survive the
// crash, so the GC window restarts, which only errs toward hiding longer —
// safe, because marks exist only on versions installed during the marked
// ROT's lifetime, so extra hiding can never take back state its session
// already observed. Records whose version is gone (trimmed, superseded out
// of the snapshot, or torn from the log tail) are dropped.
func (s *loStore) addMarks(key string, ts uint64, src uint8, entries []wire.ReaderEntry, now time.Time) {
	if len(entries) == 0 {
		return
	}
	at := s.nanos(now)
	s.eng.Update(key, false, func(k *loKeyRef) {
		if idx := k.Chain().Find(ts, src); idx >= 0 {
			s.mark(k, idx, slotsFromWire(nil, entries).stamp(at), at-int64(s.gcWindow))
		}
	})
}

// slotsFromWire appends entries to dst[:0] as (unstamped) slots, ordered by
// client and one per client. Our own servers ship and persist them already
// in that shape; anything else (several records of one version replayed from
// the log) is sorted and folded here.
func slotsFromWire(dst slotSet, entries []wire.ReaderEntry) slotSet {
	dst = dst[:0]
	ordered := true
	for _, e := range entries {
		n := slot{rotID: e.RotID, t: e.T}
		ordered = ordered && (len(dst) == 0 || dst[len(dst)-1].client() < n.client())
		dst = append(dst, n)
	}
	if ordered {
		return dst
	}
	slices.SortFunc(dst, func(a, b slot) int { return cmp.Compare(a.client(), b.client()) })
	w := 0
	for _, e := range dst[1:] {
		if dst[w].client() == e.client() {
			dst[w] = prefer(dst[w], e)
		} else {
			w++
			dst[w] = e
		}
	}
	return dst[:w+1]
}

// wireReaders is the shipped and persisted form of a slot set (nil when
// empty): ROT id and read time, in set order.
func wireReaders(s slotSet) []wire.ReaderEntry {
	if len(s) == 0 {
		return nil
	}
	out := make([]wire.ReaderEntry, len(s))
	for i, e := range s {
		out[i] = wire.ReaderEntry{RotID: e.rotID, T: e.t}
	}
	return out
}

// versionMarks is one retained version's identity and its non-expired
// invisibility marks, as collected for WAL snapshot emission.
type versionMarks struct {
	ts      uint64
	src     uint8
	entries []wire.ReaderEntry
}

// markedVersions returns, for every retained version of key carrying at
// least one non-expired invisibility mark, the version identity and its
// marks (oldest first; nil when none). It takes the shard lock briefly —
// mark sets are interior-mutable state — so the WAL snapshot serializer can
// collect marks per key and emit them with no lock held.
func (s *loStore) markedVersions(key string, now time.Time) []versionMarks {
	cutoff := s.nanos(now) - int64(s.gcWindow)
	var out []versionMarks
	s.eng.Update(key, false, func(k *loKeyRef) {
		c := k.Chain()
		if c == nil {
			return
		}
		for i := range c.Versions {
			v := &c.Versions[i]
			if inv := v.Extra.invisible; inv != nil {
				inv.expire(cutoff)
				if len(*inv) > 0 {
					out = append(out, versionMarks{ts: v.TS, src: v.Src, entries: wireReaders(*inv)})
				}
			}
		}
	})
	return out
}

// latest returns the newest version of key. Lock-free.
func (s *loStore) latest(key string) (loVersion, bool) {
	v := s.eng.Latest(key)
	if v == nil {
		return loVersion{}, false
	}
	return loVersion{value: v.Value, ts: v.TS, srcDC: v.Src}, true
}

// hasVersion reports whether the version of key identified by (ts, src)
// has been installed here (dependency-check predicate). The check is
// EXACT, not "any newer version": a newer CONCURRENT version can satisfy a
// ≥ check while being invisible to some rewound ROT, which would let a
// dependent update become readable before the one version that ROT could
// consistently be served has arrived — and a same-timestamp version from a
// DIFFERENT DC is a different version entirely (Lamport timestamps collide
// across DCs). On a trimmed chain a version LWW-below the oldest retained
// one counts as installed: either the trim dropped it, or it will arrive
// below the oldest retained version, which hides it from every ROT the
// chain can still serve (see floor and serve), so a dependent has nothing
// to wait for. Lock-free.
func (s *loStore) hasVersion(key string, ts uint64, src uint8) bool {
	c := s.eng.View(key)
	if c.Len() == 0 {
		return false
	}
	want := loEngVer{TS: ts, Src: src}
	if c.Trimmed && want.Before(&c.Versions[0]) {
		// On an untrimmed chain "LWW-below the oldest" just means never
		// installed.
		return true
	}
	return c.Find(ts, src) >= 0
}

// forEachChain visits every key's retained chain (lock-free; chains are
// immutable snapshots, so fn may block without stalling writers).
func (s *loStore) forEachChain(fn func(key string, c *loChain)) {
	s.eng.ForEach(func(key string, c *loChain) bool {
		fn(key, c)
		return true
	})
}

// forEachLatest visits every key's newest version (tests, convergence).
// Lock-free.
func (s *loStore) forEachLatest(fn func(key string, v loVersion)) {
	s.forEachChain(func(key string, c *loChain) {
		l := c.Latest()
		fn(key, loVersion{value: l.Value, ts: l.TS, srcDC: l.Src})
	})
}

// readerSizes reports the sizes of key's reader-tracking sets (tests).
func (s *loStore) readerSizes(key string) (readers, oldReaders int) {
	s.eng.Update(key, false, func(k *loKeyRef) {
		readers, oldReaders = len(k.Aux().readers), len(k.Aux().oldReaders)
	})
	return readers, oldReaders
}
