package mvstore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// refStore is the pre-refactor store logic, vendored verbatim (minus
// locking and sharding, which do not affect answers) except that a read
// that finds nothing visible on a trimmed chain is refused instead of
// answered with the oldest retained version: the golden oracle the
// engine-backed adapter must agree with on every operation of a recorded
// trace. If a refactor of internal/store shifts install ordering, trim
// accounting, or the snapshot-visibility rule, this test names the first
// diverging operation.
type refStore struct {
	m           map[string]*refChain
	maxVersions int
	refusals    uint64
}

type refChain struct {
	versions []Version
	trimmed  bool
}

func newRefStore(maxVersions int) *refStore {
	return &refStore{m: make(map[string]*refChain), maxVersions: maxVersions}
}

func (s *refStore) install(key string, v Version) bool {
	c := s.m[key]
	if c == nil {
		c = &refChain{}
		s.m[key] = c
	}
	i := len(c.versions)
	for i > 0 && v.Before(&c.versions[i-1]) {
		i--
	}
	if i > 0 && c.versions[i-1].TS == v.TS && c.versions[i-1].SrcDC == v.SrcDC {
		return i == len(c.versions)
	}
	c.versions = append(c.versions, Version{})
	copy(c.versions[i+1:], c.versions[i:])
	c.versions[i] = v
	newest := i == len(c.versions)-1
	if len(c.versions) > s.maxVersions {
		drop := len(c.versions) - s.maxVersions
		c.versions = append(c.versions[:0:0], c.versions[drop:]...)
		c.trimmed = true
	}
	return newest
}

func (s *refStore) readLatest(key string) (Version, bool) {
	c := s.m[key]
	if c == nil || len(c.versions) == 0 {
		return Version{}, false
	}
	return c.versions[len(c.versions)-1], true
}

func (s *refStore) readAtSnapshot(key string, sv vclock.Vec) (Version, bool, error) {
	c := s.m[key]
	if c == nil || len(c.versions) == 0 {
		return Version{}, false, nil
	}
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].DV.LEQ(sv) {
			return c.versions[i], true, nil
		}
	}
	if c.trimmed {
		s.refusals++
		return Version{}, false, ErrTrimmed
	}
	return Version{}, false, nil
}

func (s *refStore) chainLen(key string) int {
	if c := s.m[key]; c != nil {
		return len(c.versions)
	}
	return 0
}

func sameVersion(a, b Version) bool {
	if a.TS != b.TS || a.SrcDC != b.SrcDC || string(a.Value) != string(b.Value) || len(a.DV) != len(b.DV) {
		return false
	}
	for i := range a.DV {
		if a.DV[i] != b.DV[i] {
			return false
		}
	}
	return true
}

// TestGoldenTraceMatchesPreRefactorStore replays a deterministic recorded
// op trace — out-of-order installs, duplicates, tie-breaks, trims, snapshot
// reads on random vectors — against both the engine-backed store and the
// vendored pre-refactor logic, and requires identical answers operation by
// operation.
func TestGoldenTraceMatchesPreRefactorStore(t *testing.T) {
	const maxVersions = 4
	r := rand.New(rand.NewSource(20180413)) // the paper's arXiv date: fixed trace
	eng := NewSharded(maxVersions, 0)
	ref := newRefStore(maxVersions)

	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	randVec := func() vclock.Vec {
		return vclock.Vec{uint64(r.Intn(64)), uint64(r.Intn(64))}
	}
	for op := 0; op < 8000; op++ {
		key := keys[r.Intn(len(keys))]
		switch r.Intn(5) {
		case 0, 1: // install: small TS range forces dups, ties, reordering
			ts := uint64(r.Intn(48) + 1)
			v := Version{
				Value: []byte(fmt.Sprintf("%s@%d", key, ts)),
				TS:    ts,
				SrcDC: uint8(r.Intn(3)),
				DV:    vclock.Vec{ts, uint64(r.Intn(int(ts) + 1))},
			}
			got, want := eng.Install(key, v), ref.install(key, v)
			if got != want {
				t.Fatalf("op %d: Install(%s, ts=%d src=%d) newest=%v, golden says %v", op, key, v.TS, v.SrcDC, got, want)
			}
		case 2:
			gv, gok := eng.ReadLatest(key)
			wv, wok := ref.readLatest(key)
			if gok != wok || (gok && !sameVersion(gv, wv)) {
				t.Fatalf("op %d: ReadLatest(%s) = (%+v, %v), golden (%+v, %v)", op, key, gv, gok, wv, wok)
			}
		case 3:
			sv := randVec()
			gv, gok, gerr := eng.ReadAtSnapshot(key, sv)
			wv, wok, werr := ref.readAtSnapshot(key, sv)
			if gok != wok || gerr != werr || (gok && !sameVersion(gv, wv)) {
				t.Fatalf("op %d: ReadAtSnapshot(%s, %v) = (%+v, %v, %v), golden (%+v, %v, %v)", op, key, sv, gv, gok, gerr, wv, wok, werr)
			}
		case 4:
			if got, want := eng.ChainLen(key), ref.chainLen(key); got != want {
				t.Fatalf("op %d: ChainLen(%s) = %d, golden %d", op, key, got, want)
			}
		}
	}
	if got, want := eng.Keys(), len(ref.m); got != want {
		t.Fatalf("Keys() = %d, golden %d", got, want)
	}
	if got, want := eng.Refusals(), ref.refusals; got != want || got == 0 {
		t.Fatalf("Refusals() = %d, golden %d: refusal accounting diverged (or the trace never reached it)", got, want)
	}
	// Final sweep: every key's full visible state agrees (latest + the
	// snapshot answer at every vector in the trace's range).
	for _, key := range keys {
		for x := 0; x < 64; x += 7 {
			for y := 0; y < 64; y += 7 {
				sv := vclock.Vec{uint64(x), uint64(y)}
				gv, gok, gerr := eng.ReadAtSnapshot(key, sv)
				wv, wok, werr := ref.readAtSnapshot(key, sv)
				if gok != wok || gerr != werr || (gok && !sameVersion(gv, wv)) {
					t.Fatalf("final sweep: ReadAtSnapshot(%s, %v) = (%+v, %v, %v), golden (%+v, %v, %v)", key, sv, gv, gok, gerr, wv, wok, werr)
				}
			}
		}
	}
}
