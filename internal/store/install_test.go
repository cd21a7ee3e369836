package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/workload"
)

// refChain is the reference the model test compares against: the parent
// commit's installLocked and SetExtra, copy-per-install, vendored verbatim
// except that allocation is plain make and the chain lives in a struct.
type refChain struct {
	vs      []Version[int]
	trimmed bool
	max     int
}

func (r *refChain) install(v Version[int]) (idx int, newest, dup bool) {
	vs, trimmed := r.vs, r.trimmed
	// Find the insertion point from the tail: installs are usually newest.
	i := len(vs)
	for i > 0 && v.Before(&vs[i-1]) {
		i--
	}
	if i > 0 && vs[i-1].TS == v.TS && vs[i-1].Src == v.Src {
		return i - 1, i == len(vs), true
	}
	n := len(vs) + 1
	drop := 0
	if n > r.max {
		drop = n - r.max
	}
	nvs := make([]Version[int], n-drop)
	for d, s := 0, drop; s < n; d, s = d+1, s+1 {
		switch {
		case s < i:
			nvs[d] = vs[s]
		case s == i:
			nvs[d] = v
		default:
			nvs[d] = vs[s-1]
		}
	}
	r.vs, r.trimmed = nvs, trimmed || drop > 0
	idx = i - drop
	if idx < 0 {
		idx = -1 // at capacity and older than everything retained
	}
	return idx, i == n-1, false
}

func (r *refChain) setExtra(idx, x int) {
	nvs := make([]Version[int], len(r.vs))
	copy(nvs, r.vs)
	nvs[idx].Extra = x
	r.vs = nvs
}

func sameVersion(a, b *Version[int]) bool {
	return a.TS == b.TS && a.Src == b.Src && a.Extra == b.Extra && string(a.Value) == string(b.Value)
}

func sameVersions(a, b []Version[int]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameVersion(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// Model test: whatever the in-place engine does with its backing arrays,
// every install answers and leaves behind exactly what copy-per-install did.
func TestInstallMatchesCopyPerInstallModel(t *testing.T) {
	for _, max := range []int{1, 2, 3, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("max%d/seed%d", max, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				e := New[int, struct{}](max, 1)
				ref := &refChain{max: max}
				next := uint64(1000) // newest TS so far
				for step := 0; step < 40*max+200; step++ {
					var ver Version[int]
					setExtra := false
					switch p := r.Intn(100); {
					case p < 55: // in order
						next += uint64(1 + r.Intn(3))
						ver = v(next, uint8(r.Intn(3)))
					case p < 70 && len(ref.vs) > 0: // mid-chain, or a duplicate when the TS is taken
						lo := ref.vs[0].TS
						ver = v(lo+uint64(r.Int63n(int64(next-lo)+1)), uint8(r.Intn(3)))
					case p < 80 && len(ref.vs) > 0: // exact duplicate
						ver = ref.vs[r.Intn(len(ref.vs))]
					case p < 90: // older than everything retained: too old once at cap
						ver = v(uint64(1+r.Intn(999)), uint8(r.Intn(3)))
					default:
						setExtra = len(ref.vs) > 0
						if !setExtra {
							continue
						}
					}
					e.Update("k", true, func(k *Key[int, struct{}]) {
						if setExtra {
							i, x := r.Intn(len(ref.vs)), r.Int()
							ref.setExtra(i, x)
							k.SetExtra(i, x)
							return
						}
						wi, wn, wd := ref.install(ver)
						gi, gn, gd := k.Install(ver)
						if gi != wi || gn != wn || gd != wd {
							t.Fatalf("step %d install %d/%d: got (%d,%v,%v), want (%d,%v,%v)", step, ver.TS, ver.Src, gi, gn, gd, wi, wn, wd)
						}
					})
					c := e.View("k")
					if !sameVersions(c.Versions, ref.vs) || c.Trimmed != ref.trimmed {
						t.Fatalf("step %d: chain diverged\n got %+v trimmed=%v\nwant %+v trimmed=%v", step, c.Versions, c.Trimmed, ref.vs, ref.trimmed)
					}
					if l := e.Latest("k"); l != &c.Versions[len(c.Versions)-1] {
						t.Fatalf("step %d: latest does not point at the chain's tail", step)
					}
					if got := e.Versions(); got != len(ref.vs) {
						t.Fatalf("step %d: Versions() = %d, want %d", step, got, len(ref.vs))
					}
				}
			})
		}
	}
}

// A too-old install into a full chain stores nothing: no value bytes, no
// version slots, and the published backing array stays where it was. Only
// the header is republished, once, to flip Trimmed.
func TestTooOldInstallReservesNothing(t *testing.T) {
	const max = 4
	e := New[int, struct{}](max, 1)
	for ts := uint64(10); ts < 10+max; ts++ {
		e.Install("x", v(ts, 0))
	}
	before := e.View("x")
	if before.Trimmed {
		t.Fatal("a chain that only grew to capacity must not be Trimmed")
	}
	// Fill the current arena and slab chunks so that any allocation at all
	// would have to reserve a new chunk and show in MemBytes.
	sh := &e.shards[0]
	sh.arena.buf = sh.arena.buf[:cap(sh.arena.buf)]
	sh.slab.next = len(sh.slab.buf)
	arena0, slab0 := e.MemBytes()
	tooOld := func(ts uint64) {
		e.Update("x", false, func(k *Key[int, struct{}]) {
			if idx, newest, dup := k.Install(v(ts, 0)); idx != -1 || newest || dup {
				t.Fatalf("too-old install: idx=%d newest=%v dup=%v", idx, newest, dup)
			}
		})
	}
	tooOld(1)
	after := e.View("x")
	if !after.Trimmed {
		t.Fatal("dropping the installed version must set Trimmed")
	}
	if &after.Versions[0] != &before.Versions[0] || len(after.Versions) != max {
		t.Fatal("too-old install moved or resized the published versions")
	}
	if e.Latest("x") != &before.Versions[max-1] {
		t.Fatal("too-old install moved latest")
	}
	tooOld(2)
	if e.View("x") != after {
		t.Fatal("an already-Trimmed chain must not be republished by a too-old install")
	}
	if arena1, slab1 := e.MemBytes(); arena1 != arena0 || slab1 != slab0 {
		t.Fatalf("too-old installs reserved memory: arena %+d slab %+d", arena1-arena0, slab1-slab0)
	}
}

// Allocation pin: with the chain at max, max consecutive newest installs
// reserve at most one backing array of version slots (copy-per-install
// reserved max of them).
func TestHotKeyReservesOneArrayPerMaxInstalls(t *testing.T) {
	const max = DefaultMaxVersions
	e := New[int, struct{}](max, 1)
	ts := uint64(0)
	for ; ts < max; ts++ {
		e.Install("x", v(ts+1, 0))
	}
	if c := e.View("x"); c.Len() != max {
		t.Fatalf("chain len %d, want %d", c.Len(), max)
	}
	oneArray := int64(unsafe.Sizeof(Version[int]{})) * 2 * max
	_, slab0 := e.MemBytes()
	for i := 0; i < max; i++ {
		ts++
		e.Install("x", v(ts, 0))
	}
	_, slab1 := e.MemBytes()
	if got := slab1 - slab0; got > oneArray {
		t.Fatalf("%d installs at cap reserved %d slab bytes, want at most one array (%d)", max, got, oneArray)
	}
	if c := e.View("x"); c.Len() != max || !c.Trimmed || c.Versions[0].TS != ts-max+1 {
		t.Fatalf("window did not slide: len=%d trimmed=%v oldest=%d", c.Len(), c.Trimmed, c.Versions[0].TS)
	}
}

// Snapshot immutability under in-place append: readers keep re-checking
// every field of chains they grabbed earlier while one writer drives the
// same key through append → slide → regrow → mid-chain insert → SetExtra.
// A fast path that wrote a slot inside a published len would change a held
// snapshot (and trip -race).
func TestSnapshotsStayFrozenUnderInPlaceAppend(t *testing.T) {
	const max = 8
	e := New[int, struct{}](max, 1)
	e.Install("x", v(2, 0))

	type held struct {
		c      *Chain[int]
		copied []Version[int]
		latest *Version[int]
		lcopy  Version[int]
	}
	grab := func() held {
		c := e.View("x")
		l := e.Latest("x")
		return held{c: c, copied: append([]Version[int](nil), c.Versions...), latest: l, lcopy: *l}
	}
	verify := func(h held) {
		if len(h.c.Versions) != len(h.copied) || len(h.copied) > max {
			t.Errorf("held chain changed length: %d → %d", len(h.copied), len(h.c.Versions))
			return
		}
		for i := range h.copied {
			got, want := &h.c.Versions[i], &h.copied[i]
			if !sameVersion(got, want) {
				t.Errorf("held chain slot %d changed: %+v → %+v", i, *want, *got)
			}
			if len(got.Value) != 2 || got.Value[0] != byte(got.TS) {
				t.Errorf("torn version in held chain: %+v", *got)
			}
			if i > 0 && !h.c.Versions[i-1].Before(got) {
				t.Errorf("held chain unsorted at %d", i)
			}
		}
		if !sameVersion(h.latest, &h.lcopy) {
			t.Errorf("held latest changed: %+v → %+v", h.lcopy, *h.latest)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ring [16]held
			for n := 0; !stop.Load(); n++ {
				ring[n%len(ring)] = grab()
				for _, h := range ring[:min(n+1, len(ring))] {
					verify(h)
				}
				runtime.Gosched()
			}
		}()
	}
	// Even TSs arrive in order (append, then slide at max, regrow every max);
	// every seventh step an odd TS lands mid-chain and every eleventh a
	// SetExtra republishes — both move the key to a fresh backing array.
	for ts := uint64(4); ts < 6000; ts += 2 {
		e.Install("x", v(ts, 0))
		if ts%14 == 0 {
			e.Install("x", v(ts-3, 1))
		}
		if ts%22 == 0 {
			e.Update("x", false, func(k *Key[int, struct{}]) {
				c := k.Chain()
				k.SetExtra(0, c.Versions[0].Extra)
			})
		}
	}
	stop.Store(true)
	wg.Wait()
}

var installSink bool

// BenchmarkInstallHot is the install path under the traffic the gated
// workloads actually send: zipf 0.99 keys, 128 B values and a dependency
// vector per version, so most installs hit chains already at the version
// cap. It sits beside mvstore.BenchmarkInstall, whose uniform overwrites
// never fill a chain. Besides ns/op and B/op it reports what the heap holds
// per retained version once the GC has run — the number copy-per-install
// inflated 30×.
func BenchmarkInstallHot(b *testing.B) {
	const keys = 20000 // one benchmark partition's preload
	e := New[[]uint64, struct{}](0, 0)
	names := make([]string, keys)
	val, dv := make([]byte, 128), []uint64{1, 0}
	for i := range names {
		names[i] = fmt.Sprintf("key-%06d", i)
		e.Install(names[i], Version[[]uint64]{Value: val, TS: 1, Extra: dv})
	}
	z, r := workload.NewZipfian(keys, 0.99), rand.New(rand.NewSource(1))
	stream := make([]uint32, 1<<16)
	for i := range stream {
		stream[i] = uint32(z.Next(r))
	}
	ts := uint64(1)
	install := func(n int) {
		for i := 0; i < n; i++ {
			ts++
			installSink = e.Install(names[stream[i%len(stream)]], Version[[]uint64]{Value: val, TS: ts, Extra: dv})
		}
	}
	install(400_000) // the hot keys reach the cap before the clock starts
	b.ReportAllocs()
	b.ResetTimer()
	install(b.N)
	b.StopTimer()
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	b.ReportMetric(float64(m.HeapAlloc)/float64(e.Versions()), "heapB/version")
}
