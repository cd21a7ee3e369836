package cops

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCopsStore is the pre-refactor COPS store logic, vendored verbatim
// (minus locking and sharding): the golden oracle for install ordering, the
// at() rewind rule, and hasVersion — with ONE deliberate divergence. The
// old hasVersion used `len(chain) >= maxVersions` as its "was trimmed"
// proxy, which false-positives on a chain that merely GREW to capacity; the
// engine tracks an exact Trimmed flag, so the oracle does too (the corner
// itself is pinned by TestHasVersionAtCapacity).
type refCopsStore struct {
	m           map[string]*refCopsChain
	maxVersions int
}

type refCopsChain struct {
	versions []version
	trimmed  bool
}

func newRefCopsStore(maxVersions int) *refCopsStore {
	return &refCopsStore{m: make(map[string]*refCopsChain), maxVersions: maxVersions}
}

func (s *refCopsStore) install(key string, v version) {
	c := s.m[key]
	if c == nil {
		c = &refCopsChain{}
		s.m[key] = c
	}
	chain := c.versions
	i := len(chain)
	for i > 0 && v.before(&chain[i-1]) {
		i--
	}
	if i > 0 && chain[i-1].ts == v.ts && chain[i-1].srcDC == v.srcDC {
		return // duplicate
	}
	chain = append(chain, version{})
	copy(chain[i+1:], chain[i:])
	chain[i] = v
	if len(chain) > s.maxVersions {
		chain = append(chain[:0:0], chain[len(chain)-s.maxVersions:]...)
		c.trimmed = true
	}
	c.versions = chain
}

func (s *refCopsStore) latest(key string) (version, bool) {
	c := s.m[key]
	if c == nil || len(c.versions) == 0 {
		return version{}, false
	}
	return c.versions[len(c.versions)-1], true
}

func (s *refCopsStore) at(key string, ts uint64, src uint8) (version, bool) {
	var chain []version
	if c := s.m[key]; c != nil {
		chain = c.versions
	}
	want := version{ts: ts, srcDC: src}
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].ts == ts && chain[i].srcDC == src {
			return chain[i], true
		}
		if chain[i].before(&want) {
			if i+1 < len(chain) {
				return chain[i+1], true
			}
			return version{}, false
		}
	}
	if len(chain) > 0 {
		return chain[0], true
	}
	return version{}, false
}

func (s *refCopsStore) hasVersion(key string, ts uint64, src uint8) bool {
	c := s.m[key]
	if c == nil || len(c.versions) == 0 {
		return false
	}
	chain := c.versions
	want := version{ts: ts, srcDC: src}
	if c.trimmed && want.before(&chain[0]) {
		return true
	}
	for i := len(chain) - 1; i >= 0 && chain[i].ts >= ts; i-- {
		if chain[i].ts == ts && chain[i].srcDC == src {
			return true
		}
	}
	return false
}

func sameCopsVersion(a, b version) bool {
	return a.ts == b.ts && a.srcDC == b.srcDC && string(a.value) == string(b.value)
}

// TestGoldenTraceMatchesPreRefactorStore replays a deterministic trace of
// installs, latest/at reads, and dependency-check probes against the
// engine-backed store and the vendored pre-refactor logic, requiring
// identical answers at every step.
func TestGoldenTraceMatchesPreRefactorStore(t *testing.T) {
	const maxVersions = 4
	r := rand.New(rand.NewSource(20180413))
	eng := newStore(maxVersions, 1)
	ref := newRefCopsStore(maxVersions)

	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	for op := 0; op < 8000; op++ {
		key := keys[r.Intn(len(keys))]
		ts, src := uint64(r.Intn(48)+1), uint8(r.Intn(3))
		switch r.Intn(5) {
		case 0, 1:
			v := version{value: []byte(fmt.Sprintf("%s@%d.%d", key, ts, src)), ts: ts, srcDC: src}
			eng.install(key, v)
			ref.install(key, v)
		case 2:
			gv, gok := eng.latest(key)
			wv, wok := ref.latest(key)
			if gok != wok || (gok && !sameCopsVersion(gv, wv)) {
				t.Fatalf("op %d: latest(%s) = (%+v, %v), golden (%+v, %v)", op, key, gv, gok, wv, wok)
			}
		case 3:
			gv, gok := eng.at(key, ts, src)
			wv, wok := ref.at(key, ts, src)
			if gok != wok || (gok && !sameCopsVersion(gv, wv)) {
				t.Fatalf("op %d: at(%s, %d, %d) = (%+v, %v), golden (%+v, %v)", op, key, ts, src, gv, gok, wv, wok)
			}
		case 4:
			if got, want := eng.eng.Has(key, ts, src), ref.hasVersion(key, ts, src); got != want {
				t.Fatalf("op %d: hasVersion(%s, %d, %d) = %v, golden %v", op, key, ts, src, got, want)
			}
		}
	}
	// Final sweep: the full dependency-check and rewind surface agrees.
	for _, key := range keys {
		for ts := uint64(1); ts <= 48; ts++ {
			for src := uint8(0); src < 3; src++ {
				if got, want := eng.eng.Has(key, ts, src), ref.hasVersion(key, ts, src); got != want {
					t.Fatalf("final sweep: hasVersion(%s, %d, %d) = %v, golden %v", key, ts, src, got, want)
				}
				gv, gok := eng.at(key, ts, src)
				wv, wok := ref.at(key, ts, src)
				if gok != wok || (gok && !sameCopsVersion(gv, wv)) {
					t.Fatalf("final sweep: at(%s, %d, %d) = (%+v, %v), golden (%+v, %v)", key, ts, src, gv, gok, wv, wok)
				}
			}
		}
	}
}

// TestHasVersionAtCapacity pins the deliberate divergence from the
// pre-refactor heuristic: a chain that GREW to exactly maxVersions but was
// never trimmed must not claim below-window versions were installed, while
// a genuinely trimmed chain must. The old `len(chain) >= maxVersions` proxy
// got the first half wrong, passing dependency checks for versions that
// were never written.
func TestHasVersionAtCapacity(t *testing.T) {
	const cap = 4
	s := newStore(cap, 1)
	for i := 1; i <= cap; i++ { // exactly at capacity, nothing trimmed
		s.install("k", version{value: []byte{byte(i)}, ts: uint64(i + 10), srcDC: 1})
	}
	if s.eng.Has("k", 5, 0) {
		t.Fatal("at-capacity untrimmed chain claimed a never-installed below-window version")
	}
	if !s.eng.Has("k", 11, 1) {
		t.Fatal("retained version denied")
	}
	// One more install trims ts=11; now — and only now — below-window
	// identities are provably installed-and-trimmed.
	s.install("k", version{value: []byte{9}, ts: 99, srcDC: 1})
	if !s.eng.Has("k", 11, 1) {
		t.Fatal("trimmed-away version denied after a real trim")
	}
	if !s.eng.Has("k", 5, 0) {
		t.Fatal("below-window version denied on a trimmed chain")
	}
}
