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

// refChain is the reference the model test compares against: the
// copy-per-install core the in-place engine replaced, allocation by plain
// make, plus the trim rule stated as directly as it reads — keep the
// suffix from the newest stable version, and at most max.
type refChain struct {
	vs      []Version[int]
	trimmed bool
	max     int
	stable  func(*Version[int]) bool // nil: the cap alone
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
	merged := append(append(append([]Version[int](nil), vs[:i]...), v), vs[i:]...)
	drop := 0
	for j := range merged {
		if r.stable != nil && r.stable(&merged[j]) {
			drop = j
		}
	}
	drop = max(drop, len(merged)-r.max)
	if trimmed && i == 0 {
		drop = max(drop, 1) // a trimmed chain takes nothing below its oldest
	}
	r.vs, r.trimmed = merged[drop:], trimmed || drop > 0
	idx = i - drop
	if idx < 0 {
		idx = -1 // older than what the trim keeps
	}
	return idx, i == len(merged)-1, false
}

// newestStable is mvstore's frontier rule over the trim hook: a chain starts
// at its newest stable version.
func newestStable(stable func(*Version[int]) bool) Trim[int] {
	return func(p Pending[int]) int {
		for j := p.Len() - 1; j > p.Lo; j-- {
			if stable(p.Version(j)) {
				return j
			}
		}
		return 0
	}
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
// every install answers and leaves behind exactly what copy-per-install did
// — under the cap alone, and with a trim frontier that advances at random
// while lock-free readers hold and re-check what they saw.
func TestInstallMatchesCopyPerInstallModel(t *testing.T) {
	for _, max := range []int{1, 2, 3, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("max%d/seed%d", max, seed), func(t *testing.T) {
				modelWalk(t, max, seed, false)
				modelWalk(t, max, seed, true)
			})
		}
	}
}

func modelWalk(t *testing.T, limit int, seed int64, trim bool) {
	r := rand.New(rand.NewSource(seed))
	// A version is stable once its Extra is at most the frontier. Extra is
	// the TS jittered by a few, so stability is not monotone along a chain:
	// a stable version may sit above one that is not (a DV can lag its TS).
	frontier := 0
	var stable func(*Version[int]) bool
	var rule Trim[int]
	if trim {
		stable = func(v *Version[int]) bool { return v.Extra <= frontier }
		rule = newestStable(stable)
	}
	e := NewTrimmed[int, struct{}](limit, 1, rule)
	ref := &refChain{max: limit, stable: stable}
	defer frozenReaders(t, e, "k", limit)()
	next := uint64(1000) // newest TS so far
	for step := 0; step < 40*limit+200; step++ {
		if trim && r.Intn(8) == 0 {
			frontier = int(max(uint64(frontier), next-uint64(r.Intn(12))))
		}
		var ver Version[int]
		setExtra := false
		switch p := r.Intn(100); {
		case p < 55: // in order
			next += uint64(1 + r.Intn(3))
			ver = v(next, uint8(r.Intn(3)))
			ver.Extra += r.Intn(7) - 3
		case p < 70 && len(ref.vs) > 0: // mid-chain, or a duplicate when the TS is taken
			lo := ref.vs[0].TS
			ver = v(lo+uint64(r.Int63n(int64(next-lo)+1)), uint8(r.Intn(3)))
		case p < 80 && len(ref.vs) > 0: // exact duplicate
			ver = ref.vs[r.Intn(len(ref.vs))]
		case p < 90: // older than everything retained: too old once trimmed
			ver = v(uint64(1+r.Intn(999)), uint8(r.Intn(3)))
		default:
			setExtra = len(ref.vs) > 0
			if !setExtra {
				continue
			}
		}
		e.Update("k", true, func(k *Key[int, struct{}]) {
			if setExtra {
				i, x := r.Intn(len(ref.vs)), int(ref.vs[0].TS)+r.Intn(2000)
				ref.setExtra(i, x)
				k.SetExtra(i, x)
				return
			}
			wi, wn, wd := ref.install(ver)
			gi, gn, gd := k.Install(ver, 0)
			if gi != wi || gn != wn || gd != wd {
				t.Fatalf("trim=%v step %d install %d/%d: got (%d,%v,%v), want (%d,%v,%v)", trim, step, ver.TS, ver.Src, gi, gn, gd, wi, wn, wd)
			}
		})
		c := e.View("k")
		if !sameVersions(c.Versions, ref.vs) || c.Trimmed != ref.trimmed {
			t.Fatalf("trim=%v step %d: chain diverged\n got %+v trimmed=%v\nwant %+v trimmed=%v", trim, step, c.Versions, c.Trimmed, ref.vs, ref.trimmed)
		}
		if l := e.Latest("k"); l != &c.Versions[len(c.Versions)-1] {
			t.Fatalf("trim=%v step %d: latest does not point at the chain's tail", trim, step)
		}
		if got := e.Versions(); got != len(ref.vs) {
			t.Fatalf("trim=%v step %d: Versions() = %d, want %d", trim, step, got, len(ref.vs))
		}
	}
}

// frozenReaders starts readers that keep grabbing key's chain and latest
// version and re-checking every one they still hold: a held snapshot must
// never change, stay sorted and within max, and every version must carry
// its own TS in its first value byte (the v helper's layout). The returned
// func stops and joins them.
func frozenReaders(t *testing.T, e *Engine[int, struct{}], key string, max int) (stop func()) {
	type held struct {
		c      *Chain[int]
		copied []Version[int]
		latest *Version[int]
		lcopy  Version[int]
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
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ring [16]held
			n := 0
			for !done.Load() {
				c, l := e.View(key), e.Latest(key)
				if c == nil || l == nil {
					runtime.Gosched()
					continue
				}
				ring[n%len(ring)] = held{c: c, copied: append([]Version[int](nil), c.Versions...), latest: l, lcopy: *l}
				n++
				for _, h := range ring[:min(n, len(ring))] {
					verify(h)
				}
				runtime.Gosched()
			}
		}()
	}
	return func() {
		done.Store(true)
		wg.Wait()
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
			if idx, newest, dup := k.Install(v(ts, 0), 0); idx != -1 || newest || dup {
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
	stop := frozenReaders(t, e, "x", max)
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
	stop()
}

// What the trim frees must be collectable: once a hot key's chain is
// trimmed, its backing arrays are sized to the live window, not to the
// ceiling, and its values stop coming from the arena, whose chunks a cold
// neighbour pins. A cold key's first versions still do.
func TestTrimmedChainAllocatesPrivatelyToItsWindow(t *testing.T) {
	frontier := uint64(0)
	e := NewTrimmed[int, struct{}](0, 1, newestStable(func(v *Version[int]) bool { return v.TS <= frontier }))
	e.Install("cold", v(1, 0))
	arena0, _ := e.MemBytes()
	if arena0 == 0 {
		t.Fatal("a cold key's first value must come from the arena")
	}
	sh := &e.shards[0]
	for ts := uint64(2); ts < 5000; ts++ {
		frontier = max(ts, 3) - 3 // the frontier trails the writes by three versions
		e.Install("hot", v(ts, 0))
		if c := e.View("hot"); ts > 10 && (c.Len() > 4 || cap(c.Versions) > 16) {
			t.Fatalf("ts %d: chain len %d cap %d, want the live window (≤ 4) on an array sized to it", ts, c.Len(), cap(c.Versions))
		}
		if ts == 10 {
			// Fill the arena's current chunk: any value still bumped from the
			// arena would now have to reserve a new chunk and show in MemBytes.
			sh.arena.buf = sh.arena.buf[:cap(sh.arena.buf)]
			arena0, _ = e.MemBytes()
		}
	}
	if arena1, _ := e.MemBytes(); arena1 != arena0 {
		t.Fatalf("a trimmed chain's values reserved %d arena bytes", arena1-arena0)
	}
	if c := e.View("hot"); !c.Trimmed || c.Versions[0].TS != 4996 {
		t.Fatalf("hot chain %+v trimmed=%v, want it to start at the newest stable version 4996", c.Versions, c.Trimmed)
	}
	if got := e.Versions(); got != 1+4 {
		t.Fatalf("Versions() = %d, want the cold key's 1 and the hot key's window of 4", got)
	}
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
