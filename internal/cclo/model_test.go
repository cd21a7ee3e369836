package cclo

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// modelStore is the reference the slot sets are checked against: the
// pre-refactor rotID-keyed maps (refLoStore, vendored in golden_test.go) with
// every sweep made eager — an expired entry is gone before any operation can
// look at it — and the one-id-per-client rule applied where it used to be,
// on the response.
type modelStore struct{ *refLoStore }

// sweep drops everything expired from key's reader maps and mark maps.
func (m modelStore) sweep(key string, now time.Time) {
	lk := m.m[key]
	if lk == nil {
		return
	}
	refSweep(lk.readers, m.gcWindow, now)
	refSweep(lk.oldReaders, m.gcWindow, now)
	for i := range lk.versions {
		refSweep(lk.versions[i].invisible, m.gcWindow, now)
	}
}

// check answers a readers check on deps the way the old servers did: merge
// by ROT id, then keep each client's most recent ROT.
func (m modelStore) check(deps []string, depTS uint64, now time.Time) map[uint64]refEntry {
	merged := make(map[uint64]refEntry)
	for _, k := range deps {
		m.sweep(k, now)
		m.collectOldReaders(k, depTS, now, merged)
	}
	best := make(map[uint64]refEntry, len(merged)) // by client
	for id, e := range merged {
		if prev, ok := best[id>>32]; !ok || id > prev.rotID {
			best[id>>32] = e
		}
	}
	out := make(map[uint64]refEntry, len(best)) // by ROT id again
	for _, e := range best {
		out[e.rotID] = e
	}
	return out
}

// TestSlotSetsMatchMapModel drives random interleavings of reads, installs
// (fresh and re-delivered, carrying freshly collected marks), readers checks
// over several dependency keys and clock steps that expire some, all or none
// of the entries, on a synthetic clock, against the model. Clients behave as
// §5.2 assumes: one ROT at a time, ids only growing.
//
// Required: every read serves the same version on both sides (or both
// refuse it), every install leaves the same retained chain — the model
// states the live-mark floor directly — and every readers check gives the
// same {client → ROT id, read time} for every ROT that can still read —
// each client's current one. (For a client whose
// current ROT is not an old reader, the maps may still name one of its
// finished ROTs where the slot sets already dropped it: nothing will ever be
// read under that id again, which is the whole argument for the rule.)
func TestSlotSetsMatchMapModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runModelTrace(t, seed) })
	}
}

func runModelTrace(t *testing.T, seed int64) {
	const (
		gcWindow = 10 * time.Millisecond
		clients  = 16
	)
	r := rand.New(rand.NewSource(seed))
	eng := newLoStore(1, gcWindow, false)
	model := modelStore{newRefLoStore(gcWindow)}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var seq [clients]uint64 // each client's current ROT sequence number
	current := func(rotID uint64) bool { return seq[rotID>>32] == rotID&0xFFFFFFFF }

	t0 := time.Now()
	var clock time.Duration
	nextTS := uint64(1)
	for op := 0; op < 20000; op++ {
		clock += time.Duration(r.Intn(300)) * time.Microsecond
		switch r.Intn(400) {
		case 0:
			clock += gcWindow + time.Millisecond // everything expires
		case 1, 2, 3, 4, 5, 6, 7, 8:
			clock += 4 * time.Millisecond // the older part of the window expires
		}
		now := t0.Add(clock)
		key := keys[r.Intn(len(keys))]
		switch r.Intn(8) {
		case 0, 1, 2, 3: // a client reads, possibly under a new ROT
			c := uint64(r.Intn(clients))
			if seq[c] == 0 || r.Intn(4) == 0 {
				seq[c]++
			}
			rotID := c<<32 | seq[c]
			model.sweep(key, now)
			gkv, gerr := eng.serve(key, rotID, nextTS, now)
			wv, wts, wsrc, wok, wrefused := model.read(key, rotID, nextTS, now)
			if (gerr != nil) != wrefused || (gkv.TS != 0) != wok || gkv.TS != wts || gkv.Src != wsrc || !bytes.Equal(gkv.Value, wv) {
				t.Fatalf("op %d: serve(%s, client %d rot %d) = (%+v, %v), model (%q,%d,%d,%v, refused %v)",
					op, key, c, seq[c], gkv, gerr, wv, wts, wsrc, wok, wrefused)
			}
			nextTS++
		default: // readers check over 1–3 dependency keys, then (mostly) an install
			deps := make([]string, 1+r.Intn(3))
			for i := range deps {
				deps[i] = keys[r.Intn(len(keys))]
			}
			depTS := uint64(r.Intn(int(nextTS)) + 1)
			var got slotSet
			for _, k := range deps {
				got, _ = eng.collectOldReaders(k, depTS, now, got)
			}
			want := model.check(deps, depTS, now)
			for i, e := range got {
				if i > 0 && got[i-1].client() >= e.client() {
					t.Fatalf("op %d: answer not ordered one-per-client: %+v", op, got)
				}
				if w, ok := want[e.rotID]; current(e.rotID) && (!ok || w.t != e.t) {
					t.Fatalf("op %d: check(%v, %d) names current ROT %x at t=%d; model has %+v (present %v)",
						op, deps, depTS, e.rotID, e.t, w, ok)
				}
			}
			for id, w := range want {
				if !current(id) {
					continue
				}
				if i := got.search(id >> 32); i == len(got) || got[i].rotID != id {
					t.Fatalf("op %d: check(%v, %d) misses current ROT %x (model: t=%d); got %+v", op, deps, depTS, id, w.t, got)
				}
			}
			if r.Intn(5) == 0 {
				continue // a bare check
			}
			ts, src := nextTS, uint8(r.Intn(2))
			if kept := model.retained(key); len(kept) > 0 && r.Intn(6) == 0 {
				// Re-delivery of a retained version: its fresh marks land on
				// it afterwards, possibly on a trimmed chain's oldest.
				id := kept[r.Intn(len(kept))]
				ts, src = id.ts, id.src
			} else if r.Intn(4) == 0 && ts > 1 {
				ts = uint64(r.Intn(int(ts)) + 1) // re-delivery: may hit a duplicate
			} else {
				nextTS++
			}
			val := []byte(fmt.Sprintf("%s@%d", key, ts))
			model.sweep(key, now)
			// Both sides mark the new version with the slot sets' answer; the
			// check above matched it to the model's on every current ROT.
			wnew := model.install(key, refLoVersion{value: val, ts: ts, srcDC: src}, asRef(got), now)
			gnew := eng.install(key, loVersion{value: val, ts: ts, srcDC: src}, got, now)
			if gnew != wnew {
				t.Fatalf("op %d: install(%s, ts=%d src=%d) newest=%v, model %v", op, key, ts, src, gnew, wnew)
			}
			if got, want := retained(eng, key), model.retained(key); !slices.Equal(got, want) {
				t.Fatalf("op %d: install(%s, ts=%d src=%d) left %v, model %v", op, key, ts, src, got, want)
			}
		}
	}
	if got, want := eng.eng.Refusals(), model.refusals; got != want || got == 0 {
		t.Fatalf("refusals = %d, model %d (or the trace never reached one)", got, want)
	}
}
