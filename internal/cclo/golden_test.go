package cclo

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"time"

	storeeng "repro/internal/store"
)

// refLoStore is the pre-refactor CC-LO store logic, vendored verbatim
// (minus locking and sharding) except for what a chain retains: the count
// cap is replaced by the live-mark floor, stated directly — after an
// install a chain starts just below its oldest version holding an unexpired
// mark, or at its newest version when none does, and at most store.Ceiling
// versions stay; a version arriving below a trimmed chain is dropped and
// its marks land on the oldest version kept — and a read that finds every
// version of a trimmed chain hidden is refused instead of served the
// oldest. Marks merge one ROT per client, as the slot sets do. It is the
// golden oracle for the reader-tracking and invisibility semantics — reads
// that rewind past marked versions, reader recording, the readers →
// oldReaders move on install, dup-merge of re-collected marks,
// collectOldReaders' three sources, GC sweeps, trimming and refusals. The
// trace uses a synthetic clock, so every sweep and expiry fires identically
// in both implementations.
type refEntry struct {
	rotID   uint64
	t       uint64
	vts     uint64
	addedAt time.Time
}

// refSoftReaderBound is the map size at which the pre-refactor store swept
// its reader maps in place.
const refSoftReaderBound = 128

func refMerge(out map[uint64]refEntry, id uint64, e refEntry) {
	if prev, ok := out[id]; !ok || e.t < prev.t {
		out[id] = e
	}
}

func refSweep(m map[uint64]refEntry, window time.Duration, now time.Time) {
	for id, e := range m {
		if now.Sub(e.addedAt) > window {
			delete(m, id)
		}
	}
}

type refLoVersion struct {
	value     []byte
	ts        uint64
	srcDC     uint8
	invisible map[uint64]refEntry
}

func (v *refLoVersion) before(o *refLoVersion) bool {
	if v.ts != o.ts {
		return v.ts < o.ts
	}
	return v.srcDC < o.srcDC
}

type refLoKey struct {
	versions          []refLoVersion
	trimmed           bool
	readers           map[uint64]refEntry
	oldReaders        map[uint64]refEntry
	readersSweepAt    time.Time
	oldReadersSweepAt time.Time
}

type refLoStore struct {
	m        map[string]*refLoKey
	gcWindow time.Duration
	refusals uint64
	keepAll  bool // never trim: the store every served answer must agree with
}

// verID is a version's identity, as the retained-chain comparisons see it.
type verID struct {
	ts  uint64
	src uint8
}

// retained lists the versions key's chain keeps, oldest first.
func (s *refLoStore) retained(key string) []verID {
	var out []verID
	if lk := s.m[key]; lk != nil {
		for _, v := range lk.versions {
			out = append(out, verID{v.ts, v.srcDC})
		}
	}
	return out
}

// retained lists the versions the engine-backed store keeps for key.
func retained(s *loStore, key string) []verID {
	var out []verID
	for _, v := range s.eng.View(key).Versions {
		out = append(out, verID{v.TS, v.Src})
	}
	return out
}

func newRefLoStore(gcWindow time.Duration) *refLoStore {
	return &refLoStore{m: make(map[string]*refLoKey), gcWindow: gcWindow}
}

func (s *refLoStore) expired(e refEntry, now time.Time) bool {
	return now.Sub(e.addedAt) > s.gcWindow
}

// onePerClient drops the marks of m that a higher ROT id of the same client
// supersedes: the rule the slot sets apply where marks land, and what
// decides whether a version still hides from a ROT that can read — a
// client's older ROTs have finished.
func onePerClient(m map[uint64]refEntry) {
	for id := range m {
		for other := range m {
			if other>>32 == id>>32 && other > id {
				delete(m, id)
				break
			}
		}
	}
}

// mark merges freshly collected marks into a retained version's: expired
// ones first dropped, the earliest read time kept per ROT, one ROT per
// client.
func (s *refLoStore) mark(v *refLoVersion, collected map[uint64]refEntry, now time.Time) {
	if len(collected) == 0 {
		return
	}
	if v.invisible == nil {
		v.invisible = make(map[uint64]refEntry, len(collected))
	}
	refSweep(v.invisible, s.gcWindow, now)
	for id, e := range collected {
		e.addedAt = now
		refMerge(v.invisible, id, e)
	}
	onePerClient(v.invisible)
}

// asRef is a slot set as the reference's map.
func asRef(s slotSet) map[uint64]refEntry {
	m := make(map[uint64]refEntry, len(s))
	for _, e := range s {
		m[e.rotID] = refEntry{rotID: e.rotID, t: e.t, vts: e.vts}
	}
	return m
}

// liveMark reports whether v holds a mark still inside the GC window.
func (s *refLoStore) liveMark(v *refLoVersion, now time.Time) bool {
	for _, e := range v.invisible {
		if !s.expired(e, now) {
			return true
		}
	}
	return false
}

func (s *refLoStore) sweepReaders(m map[uint64]refEntry, at time.Time, now time.Time) time.Time {
	if len(m) < refSoftReaderBound || now.Before(at) {
		return at
	}
	refSweep(m, s.gcWindow, now)
	return now.Add(s.gcWindow / 4)
}

func (s *refLoStore) read(key string, rotID uint64, t uint64, now time.Time) (val []byte, ts uint64, src uint8, ok, refused bool) {
	lk := s.m[key]
	if lk == nil || len(lk.versions) == 0 {
		if lk == nil {
			lk = &refLoKey{}
			s.m[key] = lk
		}
		if lk.readers == nil {
			lk.readers = make(map[uint64]refEntry)
		}
		lk.readersSweepAt = s.sweepReaders(lk.readers, lk.readersSweepAt, now)
		lk.readers[rotID] = refEntry{rotID: rotID, t: t, vts: 0, addedAt: now}
		return nil, 0, 0, false, false
	}
	for i := len(lk.versions) - 1; i >= 0; i-- {
		v := &lk.versions[i]
		if e, hidden := v.invisible[rotID]; hidden {
			if !s.expired(e, now) {
				continue
			}
			delete(v.invisible, rotID)
		}
		if i == len(lk.versions)-1 {
			if lk.readers == nil {
				lk.readers = make(map[uint64]refEntry)
			}
			lk.readersSweepAt = s.sweepReaders(lk.readers, lk.readersSweepAt, now)
			lk.readers[rotID] = refEntry{rotID: rotID, t: t, vts: v.ts, addedAt: now}
		}
		return v.value, v.ts, v.srcDC, true, false
	}
	if lk.trimmed {
		s.refusals++
		return nil, 0, 0, false, true
	}
	return nil, 0, 0, false, false
}

func (s *refLoStore) collectOldReaders(key string, depTS uint64, now time.Time, out map[uint64]refEntry) {
	lk := s.m[key]
	if lk == nil {
		return
	}
	refSweep(lk.oldReaders, s.gcWindow, now)
	for id, e := range lk.oldReaders {
		if e.vts < depTS {
			refMerge(out, id, e)
		}
	}
	latestTS := uint64(0)
	if len(lk.versions) > 0 {
		latestTS = lk.versions[len(lk.versions)-1].ts
	}
	if latestTS < depTS {
		refSweep(lk.readers, s.gcWindow, now)
		for id, e := range lk.readers {
			refMerge(out, id, e)
		}
	} else {
		lk.readersSweepAt = s.sweepReaders(lk.readers, lk.readersSweepAt, now)
	}
	for i := range lk.versions {
		inv := lk.versions[i].invisible
		for id, e := range inv {
			if s.expired(e, now) {
				delete(inv, id)
				continue
			}
			refMerge(out, id, e)
		}
	}
}

func (s *refLoStore) install(key string, v refLoVersion, collected map[uint64]refEntry, now time.Time) bool {
	lk := s.m[key]
	if lk == nil {
		lk = &refLoKey{}
		s.m[key] = lk
	}
	i := len(lk.versions)
	for i > 0 && v.before(&lk.versions[i-1]) {
		i--
	}
	dup := i > 0 && lk.versions[i-1].ts == v.ts && lk.versions[i-1].srcDC == v.srcDC
	if dup {
		s.mark(&lk.versions[i-1], collected, now)
	}
	newest := false
	if !dup {
		if len(collected) > 0 {
			v.invisible = make(map[uint64]refEntry, len(collected))
			for id, e := range collected {
				e.addedAt = now
				v.invisible[id] = e
			}
			onePerClient(v.invisible)
		}
		lk.versions = append(lk.versions, refLoVersion{})
		copy(lk.versions[i+1:], lk.versions[i:])
		lk.versions[i] = v
		newest = i == len(lk.versions)-1
		drop := len(lk.versions) - 1
		for j := range lk.versions {
			if s.liveMark(&lk.versions[j], now) {
				drop = max(j-1, 0)
				break
			}
		}
		drop = max(drop, len(lk.versions)-storeeng.Ceiling)
		if lk.trimmed && i == 0 {
			// Below a trimmed chain v may belong below discarded versions:
			// it is dropped, and its marks land on the oldest version kept.
			drop = max(drop, 1)
		}
		if drop > 0 && !s.keepAll {
			lk.versions = append(lk.versions[:0:0], lk.versions[drop:]...)
			lk.trimmed = true
			if i < drop {
				s.mark(&lk.versions[0], collected, now)
			}
		}
	}
	if newest && len(lk.readers) > 0 {
		if lk.oldReaders == nil {
			lk.oldReaders = make(map[uint64]refEntry, len(lk.readers))
		} else {
			lk.oldReadersSweepAt = s.sweepReaders(lk.oldReaders, lk.oldReadersSweepAt, now)
		}
		for id, e := range lk.readers {
			e.addedAt = now
			refMerge(lk.oldReaders, id, e)
		}
		clear(lk.readers)
	}
	return newest
}

func (s *refLoStore) latest(key string) (refLoVersion, bool) {
	lk := s.m[key]
	if lk == nil || len(lk.versions) == 0 {
		return refLoVersion{}, false
	}
	return lk.versions[len(lk.versions)-1], true
}

func (s *refLoStore) hasVersion(key string, ts uint64, src uint8) bool {
	lk := s.m[key]
	if lk == nil || len(lk.versions) == 0 {
		return false
	}
	want := refLoVersion{ts: ts, srcDC: src}
	if lk.trimmed && want.before(&lk.versions[0]) {
		return true
	}
	for i := len(lk.versions) - 1; i >= 0 && lk.versions[i].ts >= ts; i-- {
		if lk.versions[i].ts == ts && lk.versions[i].srcDC == src {
			return true
		}
	}
	return false
}

func (s *refLoStore) readerSizes(key string) (readers, oldReaders int) {
	if lk := s.m[key]; lk != nil {
		return len(lk.readers), len(lk.oldReaders)
	}
	return 0, 0
}

// liveSizes counts the entries of key's reader maps that belong to a ROT of
// generation gen and are still inside the GC window at now — what the maps
// would hold if every sweep were eager and finished ROTs were dropped.
func (s *refLoStore) liveSizes(key string, gen uint64, now time.Time) (readers, oldReaders int) {
	lk := s.m[key]
	if lk == nil {
		return 0, 0
	}
	for id, e := range lk.readers {
		if id&0xFFFFFFFF == gen && !s.expired(e, now) {
			readers++
		}
	}
	for id, e := range lk.oldReaders {
		if id&0xFFFFFFFF == gen && !s.expired(e, now) {
			oldReaders++
		}
	}
	return readers, oldReaders
}

// sameCollected compares a collected slot set with the reference's map on
// the fields that drive invisibility (creation times are stamped at install
// on both sides). Only ROTs of the current generation count on the
// reference's side: an older id is a finished ROT the map still carries
// (re-armed by an install before any sweep reached it), exactly what the
// one-per-client rule exists to drop.
func sameCollected(a slotSet, b map[uint64]refEntry, gen uint64) bool {
	live := 0
	for id := range b {
		if id&0xFFFFFFFF == gen {
			live++
		}
	}
	if len(a) != live {
		return false
	}
	for _, ea := range a {
		eb, ok := b[ea.rotID]
		if !ok || ea.t != eb.t || ea.vts != eb.vts {
			return false
		}
	}
	return true
}

// TestGoldenTraceMatchesPreRefactorStore replays a deterministic
// synthetic-clock trace — ROT reads, installs with freshly collected old
// readers, dup re-deliveries that land marks on retained versions,
// dependency probes, GC-window expiries — against the engine-backed loStore
// and the vendored logic, requiring identical answers, identical retained
// chains and identical reader-map footprints at every step. A third copy of
// the vendored logic never trims: every read the trimmed stores do not
// refuse must serve exactly what it serves, which is the trim's whole claim
// — it drops only versions no ROT can still be served.
func TestGoldenTraceMatchesPreRefactorStore(t *testing.T) {
	const gcWindow = 40 * time.Millisecond
	r := rand.New(rand.NewSource(20180413))
	eng := newLoStore(1, gcWindow, false)
	ref := newRefLoStore(gcWindow)
	full := newRefLoStore(gcWindow)
	full.keepAll = true

	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	t0 := time.Now()
	var clock time.Duration // synthetic time; every side sees the same now
	nextTS := uint64(1)
	gen := uint64(1)       // the ROT sequence number every client is on
	served := fnv.New64a() // every answer served, in trace order
	trimmed := 0           // reads whose answer came from a trimmed chain
	for op := 0; op < 6000; op++ {
		// Advance time; occasional jumps push entries past the GC window so
		// expiry paths (sweeps, collect drops) execute. The trace keeps the
		// two promises clients make (§5.2): a client's ROT ids only grow, and
		// no ROT outlives the GC window — every client moves to a fresh id
		// when the clock jumps. Entries of the ids left behind are dead
		// weight the maps sweep lazily and the slot sets overwrite; no read
		// is ever issued under them again.
		clock += time.Duration(r.Intn(64)) * time.Microsecond
		if r.Intn(200) == 0 {
			clock += gcWindow + time.Millisecond
			gen++
		}
		now := t0.Add(clock)
		key := keys[r.Intn(len(keys))]
		rotID := uint64(r.Intn(64)+1)<<32 | gen
		switch r.Intn(6) {
		case 0, 1: // ROT read
			if lk := ref.m[key]; lk != nil && lk.trimmed {
				trimmed++
			}
			gkv, gerr := eng.serve(key, rotID, nextTS, now)
			wv, wts, wsrc, wok, wrefused := ref.read(key, rotID, nextTS, now)
			if (gerr != nil) != wrefused || gkv.TS != wts || gkv.Src != wsrc || !bytes.Equal(gkv.Value, wv) || (gkv.TS != 0) != wok {
				t.Fatalf("op %d: serve(%s, rot %d) = (%+v, %v), golden (%q,%d,%d,%v, refused %v)",
					op, key, rotID, gkv, gerr, wv, wts, wsrc, wok, wrefused)
			}
			fv, fts, fsrc, fok, _ := full.read(key, rotID, nextTS, now)
			if !wrefused && (fok != wok || fts != wts || fsrc != wsrc) {
				t.Fatalf("op %d: read(%s, rot %d) served %d/%d (found %v) where the untrimmed store serves %q@%d/%d (found %v)",
					op, key, rotID, wts, wsrc, wok, fv, fts, fsrc, fok)
			}
			fmt.Fprintf(served, "%d|%q|%d|%d|%v|%v;", op, gkv.Value, gkv.TS, gkv.Src, gkv.TS != 0, gerr != nil)
			nextTS++
		case 2, 3: // install, with old readers collected from a dependency key
			depKey := keys[r.Intn(len(keys))]
			depTS := uint64(r.Intn(int(nextTS)) + 1)
			wout := make(map[uint64]refEntry)
			gout, _ := eng.collectOldReaders(depKey, depTS, now, nil)
			ref.collectOldReaders(depKey, depTS, now, wout)
			if !sameCollected(gout, wout, gen) {
				t.Fatalf("op %d: collectOldReaders(%s, %d) = %v, golden %v", op, depKey, depTS, gout, wout)
			}
			ts, src := nextTS, uint8(r.Intn(2))
			if kept := ref.retained(key); len(kept) > 0 && r.Intn(6) == 0 {
				// Re-delivery of a retained version: its fresh marks land on
				// it afterwards, possibly on a trimmed chain's oldest.
				id := kept[r.Intn(len(kept))]
				ts, src = id.ts, id.src
			} else if r.Intn(4) == 0 && ts > 1 {
				ts = uint64(r.Intn(int(ts)) + 1) // re-delivery: may hit a dup
			} else {
				nextTS++
			}
			val := []byte(fmt.Sprintf("%s@%d", key, ts))
			// Every side marks the new version with the engine's answer: it
			// matched the reference's on every ROT that can still read, and
			// the maps' extra ids — finished ROTs — would keep versions alive
			// for no reader.
			full.install(key, refLoVersion{value: val, ts: ts, srcDC: src}, asRef(gout), now)
			wnew := ref.install(key, refLoVersion{value: val, ts: ts, srcDC: src}, asRef(gout), now)
			gnew := eng.install(key, loVersion{value: val, ts: ts, srcDC: src}, gout, now)
			if gnew != wnew {
				t.Fatalf("op %d: install(%s, ts=%d src=%d) newest=%v, golden %v", op, key, ts, src, gnew, wnew)
			}
			if got, want := retained(eng, key), ref.retained(key); !slices.Equal(got, want) {
				t.Fatalf("op %d: install(%s, ts=%d src=%d) left %v, golden %v", op, key, ts, src, got, want)
			}
		case 4: // dependency probe
			ts := uint64(r.Intn(int(nextTS)) + 1)
			if got, want := eng.eng.Has(key, ts, 0), ref.hasVersion(key, ts, 0); got != want {
				t.Fatalf("op %d: hasVersion(%s, %d) = %v, golden %v", op, key, ts, got, want)
			}
		case 5: // latest + reader-map footprint
			gv, gok := eng.latest(key)
			wv, wok := ref.latest(key)
			if gok != wok || (gok && (gv.ts != wv.ts || !bytes.Equal(gv.value, wv.value))) {
				t.Fatalf("op %d: latest(%s) = (%+v, %v), golden (%+v, %v)", op, key, gv, gok, wv, wok)
			}
			// Footprint. The maps swept lazily (in a readers check, or past
			// 128 entries — never reached by 64 ids), the slot sets expire in
			// every pass that walks them anyway (a client's first insertion,
			// the readers→oldReaders move, every readers check). So a set
			// holds every entry still in the window, and nothing the map
			// has already dropped: live ≤ set ≤ map.
			gr, gor := eng.readerSizes(key)
			wr, wor := ref.readerSizes(key)
			lr, lor := ref.liveSizes(key, gen, now)
			if gr < lr || gr > wr || gor < lor || gor > wor {
				t.Fatalf("op %d: readerSizes(%s) = (%d, %d), want within live (%d, %d) .. golden (%d, %d)",
					op, key, gr, gor, lr, lor, wr, wor)
			}
		}
	}
	if trimmed == 0 {
		t.Fatal("the trace never read a trimmed chain")
	}
	// The served answers are also pinned: this hash is what this trace
	// served when the live-mark floor replaced the count cap. Before that,
	// the same trace pinned the map-based store of d32e4cb.
	if got, want := served.Sum64(), uint64(0xaf3a4234520ee7d9); got != want {
		t.Fatalf("served-value hash = %x, want %x", got, want)
	}
	if got, want := eng.eng.Refusals(), ref.refusals; got != want || got == 0 {
		t.Fatalf("refusals = %d, golden %d: refusal accounting diverged (or the trace never reached it)", got, want)
	}
}
