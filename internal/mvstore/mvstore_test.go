package mvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func v(ts uint64, dc uint8, dv ...uint64) Version {
	return Version{Value: []byte{byte(ts)}, TS: ts, SrcDC: dc, DV: vclock.Vec(dv)}
}

func TestInstallAndReadLatest(t *testing.T) {
	s := New()
	if _, ok := s.ReadLatest("x"); ok {
		t.Fatal("empty store should miss")
	}
	if !s.Install("x", v(10, 0, 10, 0)) {
		t.Fatal("first install should be newest")
	}
	if !s.Install("x", v(20, 0, 20, 0)) {
		t.Fatal("newer install should be newest")
	}
	if s.Install("x", v(15, 0, 15, 0)) {
		t.Fatal("out-of-order install must not report newest")
	}
	got, ok := s.ReadLatest("x")
	if !ok || got.TS != 20 {
		t.Fatalf("latest = %+v ok=%v, want TS=20", got, ok)
	}
	if s.ChainLen("x") != 3 {
		t.Fatalf("chain len = %d, want 3", s.ChainLen("x"))
	}
}

func TestInstallIdempotent(t *testing.T) {
	s := New()
	s.Install("x", v(10, 1, 0, 10))
	s.Install("x", v(10, 1, 0, 10))
	if s.ChainLen("x") != 1 {
		t.Fatalf("duplicate install grew chain: %d", s.ChainLen("x"))
	}
}

func TestLWWTieBreakByDC(t *testing.T) {
	s := New()
	s.Install("x", v(10, 1, 0, 10))
	s.Install("x", v(10, 0, 10, 0))
	got, _ := s.ReadLatest("x")
	if got.SrcDC != 1 {
		t.Fatalf("tie must be won by higher DC id, got DC %d", got.SrcDC)
	}
}

func TestReadAtSnapshot(t *testing.T) {
	s := New()
	s.Install("x", v(10, 0, 10, 0))
	s.Install("x", v(20, 0, 20, 0))
	s.Install("x", v(30, 0, 30, 5)) // depends on remote ts 5

	got, ok, _ := s.ReadAtSnapshot("x", vclock.Vec{25, 100})
	if !ok || got.TS != 20 {
		t.Fatalf("snapshot [25 100]: got %+v ok=%v, want TS=20", got, ok)
	}
	got, ok, _ = s.ReadAtSnapshot("x", vclock.Vec{30, 4})
	if !ok || got.TS != 20 {
		t.Fatalf("snapshot [30 4] must exclude version depending on remote 5: got TS=%d", got.TS)
	}
	got, ok, _ = s.ReadAtSnapshot("x", vclock.Vec{30, 5})
	if !ok || got.TS != 30 {
		t.Fatalf("snapshot [30 5]: got %+v, want TS=30", got)
	}
	if _, ok, err := s.ReadAtSnapshot("x", vclock.Vec{5, 0}); ok || err != nil {
		t.Fatalf("snapshot below all versions of an untrimmed chain must miss (key not yet created): ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.ReadAtSnapshot("nope", vclock.Vec{99, 99}); ok || err != nil {
		t.Fatalf("missing key must miss: ok=%v err=%v", ok, err)
	}
}

// A snapshot below everything a count-trimmed chain retains is refused —
// the exact version is gone — while one that sees a retained version gets
// the exact answer.
func TestTrimmedSnapshotReadRefused(t *testing.T) {
	s := NewSharded(4, 0)
	for ts := uint64(1); ts <= 10; ts++ {
		s.Install("x", v(ts, 0, ts, 0))
	}
	if s.ChainLen("x") != 4 {
		t.Fatalf("chain len = %d, want cap 4", s.ChainLen("x"))
	}
	if got, ok, err := s.ReadAtSnapshot("x", vclock.Vec{2, 0}); ok || !errors.Is(err, ErrTrimmed) {
		t.Fatalf("read below the retained window: got %+v ok=%v err=%v, want ErrTrimmed", got, ok, err)
	}
	if got, ok, err := s.ReadAtSnapshot("x", vclock.Vec{8, 0}); !ok || err != nil || got.TS != 8 {
		t.Fatalf("read inside the retained window: got %+v ok=%v err=%v, want TS=8", got, ok, err)
	}
	if s.Refusals() != 1 {
		t.Fatalf("Refusals() = %d, want 1", s.Refusals())
	}
}

// The frontier trims each chain to the newest version visible at it plus
// everything above; snapshots that dominate the frontier keep getting exact
// answers, and only one below it on a chain with nothing it can see is
// refused. A version visible at the frontier need not be the newest by
// (TS, SrcDC): stability is per dependency vector.
func TestFrontierTrim(t *testing.T) {
	s := New()
	s.Install("x", v(10, 0, 10, 0))
	s.Install("x", v(20, 1, 0, 20))
	s.Install("x", v(30, 0, 30, 25)) // depends on a remote write the frontier has not passed
	s.SetFrontier(vclock.Vec{40, 20})
	s.Install("x", v(50, 0, 50, 0))
	// The newest version visible at [40 20] is the DC1 write at 20: 10 goes,
	// and 30 stays — it is above that version, whatever its own DV.
	if s.ChainLen("x") != 3 {
		t.Fatalf("chain len = %d, want 3 (20, 30, 50)", s.ChainLen("x"))
	}
	for _, c := range []struct {
		sv   vclock.Vec
		want uint64
	}{{vclock.Vec{40, 20}, 20}, {vclock.Vec{45, 30}, 30}, {vclock.Vec{60, 0}, 50}} {
		if got, ok, err := s.ReadAtSnapshot("x", c.sv); !ok || err != nil || got.TS != c.want {
			t.Fatalf("snapshot %v: got %+v ok=%v err=%v, want TS=%d", c.sv, got, ok, err, c.want)
		}
	}
	if _, _, err := s.ReadAtSnapshot("x", vclock.Vec{15, 0}); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("snapshot below the frontier that saw only the trimmed 10: err=%v, want ErrTrimmed", err)
	}
	if !s.Frontier().Equal(vclock.Vec{40, 20}) {
		t.Fatalf("Frontier() = %v", s.Frontier())
	}
}

func TestKeysAndForEachLatest(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Install(fmt.Sprintf("k%d", i), v(uint64(i+1), 0, uint64(i+1), 0))
	}
	if s.Keys() != 100 {
		t.Fatalf("Keys = %d, want 100", s.Keys())
	}
	seen := make(map[string]uint64)
	s.ForEachLatest(func(k string, ver Version) { seen[k] = ver.TS })
	if len(seen) != 100 || seen["k42"] != 43 {
		t.Fatalf("ForEachLatest wrong: len=%d k42=%d", len(seen), seen["k42"])
	}
}

// Property: applying the same set of versions in any order converges to the
// same newest version per key (last-writer-wins convergence, §2.2).
func TestQuickConvergenceOrderIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		versions := make([]Version, n)
		for i := range versions {
			// (TS, SrcDC) uniquely identifies a version in the real system,
			// so derive the rest of the version from that identity.
			ts, dc := uint64(r.Intn(8)+1), uint8(r.Intn(3))
			versions[i] = v(ts, dc, ts+uint64(dc))
		}
		apply := func(perm []int) map[string]Version {
			s := New()
			for _, i := range perm {
				s.Install("k", versions[i])
			}
			out := make(map[string]Version)
			s.ForEachLatest(func(k string, ver Version) { out[k] = ver })
			return out
		}
		p1 := r.Perm(n)
		p2 := r.Perm(n)
		return reflect.DeepEqual(apply(p1), apply(p2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a snapshot read never returns a version outside the snapshot,
// trimmed chain or not (the cap of 4 trims most of these).
func TestQuickSnapshotContainment(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSharded(4, 0)
		for i := 0; i < 20; i++ {
			ts := uint64(r.Intn(50) + 1)
			rem := uint64(r.Intn(50))
			s.Install("k", v(ts, 0, ts, rem))
		}
		sv := vclock.Vec{uint64(r.Intn(60)), uint64(r.Intn(60))}
		got, ok, _ := s.ReadAtSnapshot("k", sv)
		if !ok {
			return true
		}
		return got.DV.LEQ(sv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInstallRead(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 500; i++ {
				key := fmt.Sprintf("k%d", i%17)
				s.Install(key, v(uint64(i*8+w), uint8(w%2), uint64(i*8+w), 0))
				s.ReadLatest(key)
				s.ReadAtSnapshot(key, vclock.Vec{uint64(i * 4), 100})
			}
		}(w)
	}
	wg.Wait()
	// Chains must remain sorted: latest is the max TS ever written to k0.
	got, ok := s.ReadLatest("k0")
	if !ok || got.TS == 0 {
		t.Fatalf("k0 missing after concurrent writes: %+v %v", got, ok)
	}
}

func BenchmarkInstall(b *testing.B) {
	s := New()
	dv := vclock.Vec{0, 0}
	val := make([]byte, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := uint64(i + 1)
		dv[0] = ts
		s.Install(fmt.Sprintf("k%d", i%4096), Version{Value: val, TS: ts, DV: dv})
	}
}

func BenchmarkReadAtSnapshot(b *testing.B) {
	s := New()
	for i := 0; i < 4096; i++ {
		ts := uint64(i + 1)
		s.Install(fmt.Sprintf("k%d", i), Version{Value: make([]byte, 8), TS: ts, DV: vclock.Vec{ts, 0}})
	}
	sv := vclock.Vec{1 << 62, 1 << 62}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ReadAtSnapshot(fmt.Sprintf("k%d", i%4096), sv)
	}
}
