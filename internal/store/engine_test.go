package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func v(ts uint64, src uint8) Version[int] {
	return Version[int]{Value: []byte{byte(ts), byte(src)}, TS: ts, Src: src, Extra: int(ts)}
}

func TestInstallOrderAndDup(t *testing.T) {
	e := New[int, struct{}](0, 1)
	if !e.Install("x", v(10, 0)) {
		t.Fatal("first install should be newest")
	}
	if !e.Install("x", v(20, 0)) {
		t.Fatal("newer install should be newest")
	}
	if e.Install("x", v(15, 0)) {
		t.Fatal("out-of-order install must not report newest")
	}
	if !e.Install("x", v(20, 0)) {
		t.Fatal("duplicate of the newest must still report newest")
	}
	if e.Install("x", v(15, 0)) {
		t.Fatal("duplicate of a non-newest must not report newest")
	}
	c := e.View("x")
	if c.Len() != 3 || c.Versions[0].TS != 10 || c.Versions[2].TS != 20 {
		t.Fatalf("chain = %+v, want [10 15 20]", c.Versions)
	}
	if got := e.Latest("x"); got == nil || got.TS != 20 {
		t.Fatalf("latest = %+v, want TS=20", got)
	}
	if e.Latest("y") != nil || e.View("y") != nil {
		t.Fatal("missing key must return nil")
	}
}

func TestTieBreakBySrc(t *testing.T) {
	e := New[int, struct{}](0, 1)
	e.Install("x", v(10, 1))
	e.Install("x", v(10, 0))
	if got := e.Latest("x"); got.Src != 1 {
		t.Fatalf("tie must be won by higher DC id, got %d", got.Src)
	}
}

func TestTrim(t *testing.T) {
	e := New[int, struct{}](4, 1)
	for ts := uint64(1); ts <= 10; ts++ {
		e.Install("x", v(ts, 0))
	}
	c := e.View("x")
	if c.Len() != 4 || !c.Trimmed || c.Versions[0].TS != 7 {
		t.Fatalf("chain = %+v trimmed=%v, want 4 versions from TS=7", c.Versions, c.Trimmed)
	}
	// Installing below the retained window drops the new version itself.
	e.Update("x", false, func(k *Key[int, struct{}]) {
		idx, newest, dup := k.Install(v(1, 0), 0)
		if idx != -1 || newest || dup {
			t.Fatalf("below-window install: idx=%d newest=%v dup=%v", idx, newest, dup)
		}
	})
	if c := e.View("x"); c.Len() != 4 || c.Versions[0].TS != 7 {
		t.Fatalf("chain changed: %+v", c.Versions)
	}
}

// TestSeal: a sealed chain keeps its versions, values and extras, claims
// what lies below its oldest version (Has), and drops it on arrival; above
// its oldest it still waits for the exact version, and installs go on.
func TestSeal(t *testing.T) {
	e := New[int, struct{}](0, 1)
	e.Install("x", v(6, 1))
	e.Install("x", v(8, 0))
	if e.Has("x", 5, 1) {
		t.Fatal("an untrimmed chain claims a version below its oldest")
	}
	e.Seal()
	c := e.View("x")
	if !c.Trimmed || c.Len() != 2 || c.Versions[0].Extra != 6 || string(c.Versions[1].Value) != string(v(8, 0).Value) {
		t.Fatalf("sealed chain %+v trimmed=%v, want [6 8] trimmed", c.Versions, c.Trimmed)
	}
	if !e.Has("x", 5, 1) || !e.Has("x", 6, 1) {
		t.Fatal("a sealed chain denies what lies at or below its oldest version")
	}
	if e.Has("x", 7, 0) {
		t.Fatal("a sealed chain claims a version above its oldest that it never had")
	}
	if e.Install("x", v(5, 1)); e.View("x").Versions[0].TS != 6 {
		t.Fatalf("a version below a sealed chain was kept: %+v", e.View("x").Versions)
	}
	if !e.Install("x", v(9, 0)) || e.View("x").Len() != 3 {
		t.Fatalf("install after Seal: %+v", e.View("x").Versions)
	}
}

// A trim rule sees the chain the install is about to publish, with the new
// version in place wherever it lands, the caller's clock and the ceiling's
// floor; whatever it answers, the engine keeps the newest version and at
// most the cap.
func TestTrimRuleSeesPendingChain(t *testing.T) {
	var seen []uint64
	var now int64
	lo, answer := -1, 0
	e := NewTrimmed[int, struct{}](4, 1, func(p Pending[int]) int {
		seen = seen[:0]
		for j := 0; j < p.Len(); j++ {
			seen = append(seen, p.Version(j).TS)
		}
		now, lo = p.Now, p.Lo
		return answer
	})
	install := func(ts uint64, at int64) {
		e.Update("x", true, func(k *Key[int, struct{}]) { k.Install(v(ts, 0), at) })
	}
	chain := func() (out []uint64) {
		for _, ver := range e.View("x").Versions {
			out = append(out, ver.TS)
		}
		return out
	}
	install(10, 1)
	install(30, 2)
	install(20, 3) // lands mid-chain
	if !slices.Equal(seen, []uint64{10, 20, 30}) || now != 3 || lo != 0 {
		t.Fatalf("rule saw %v at %d with Lo %d, want [10 20 30] at 3 with Lo 0", seen, now, lo)
	}
	install(40, 4)
	install(50, 5) // five pending under a cap of four
	if lo != 1 || !slices.Equal(chain(), []uint64{20, 30, 40, 50}) {
		t.Fatalf("Lo %d, chain %v; want 1 and the cap's [20 30 40 50]", lo, chain())
	}
	answer = 2
	install(60, 6)
	if got := chain(); !slices.Equal(got, []uint64{40, 50, 60}) || !e.View("x").Trimmed {
		t.Fatalf("rule answering 2: chain %v, want [40 50 60], trimmed", got)
	}
	answer = 99 // past the newest
	install(70, 7)
	if got := chain(); !slices.Equal(got, []uint64{70}) {
		t.Fatalf("rule answering past the newest: chain %v, want [70]", got)
	}
	// Below the oldest version of a trimmed chain a version may belong
	// below discarded ones: it is dropped even when the rule keeps all.
	answer = 0
	install(65, 8)
	if got := chain(); lo != 1 || !slices.Equal(got, []uint64{70}) {
		t.Fatalf("arrival below a trimmed chain: Lo %d, chain %v; want Lo 1 and [70]", lo, got)
	}
	install(75, 9)
	if got := chain(); lo != 0 || !slices.Equal(got, []uint64{70, 75}) {
		t.Fatalf("rule keeping all: Lo %d, chain %v; want Lo 0 and [70 75]", lo, got)
	}
}

func TestInstallIdxReportsPosition(t *testing.T) {
	e := New[int, struct{}](0, 1)
	e.Update("x", true, func(k *Key[int, struct{}]) {
		for _, ts := range []uint64{10, 30} {
			k.Install(v(ts, 0), 0)
		}
		idx, newest, dup := k.Install(v(20, 0), 0)
		if idx != 1 || newest || dup {
			t.Fatalf("middle install: idx=%d newest=%v dup=%v", idx, newest, dup)
		}
		idx, newest, dup = k.Install(v(20, 0), 0)
		if idx != 1 || newest || !dup {
			t.Fatalf("middle dup: idx=%d newest=%v dup=%v", idx, newest, dup)
		}
	})
}

func TestFind(t *testing.T) {
	e := New[int, struct{}](0, 1)
	for _, ts := range []uint64{10, 20, 30} {
		e.Install("x", v(ts, 1))
	}
	c := e.View("x")
	if i := c.Find(20, 1); i != 1 {
		t.Fatalf("Find(20,1) = %d, want 1", i)
	}
	if i := c.Find(20, 0); i != -1 {
		t.Fatalf("Find(20,0) = %d, want -1", i)
	}
	if i := c.Find(25, 1); i != -1 {
		t.Fatalf("Find(25,1) = %d, want -1", i)
	}
	var nc *Chain[int]
	if i := nc.Find(1, 0); i != -1 {
		t.Fatalf("nil chain Find = %d", i)
	}
}

func TestSetExtraRepublishes(t *testing.T) {
	e := New[int, struct{}](0, 1)
	e.Install("x", v(10, 0))
	old := e.View("x")
	e.Update("x", false, func(k *Key[int, struct{}]) { k.SetExtra(0, 99) })
	if old.Versions[0].Extra != 10 {
		t.Fatal("SetExtra mutated the published chain in place")
	}
	if got := e.View("x"); got.Versions[0].Extra != 99 || got.Versions[0].TS != 10 {
		t.Fatalf("new chain = %+v", got.Versions)
	}
}

func TestAuxPersistsAcrossRepublish(t *testing.T) {
	e := New[int, int](0, 1)
	e.Update("x", true, func(k *Key[int, int]) { *k.Aux() = 7 })
	e.Install("x", v(10, 0))
	ok := e.Update("x", false, func(k *Key[int, int]) {
		if *k.Aux() != 7 {
			t.Fatalf("aux = %d, want 7", *k.Aux())
		}
	})
	if !ok {
		t.Fatal("Update(create=false) missed an existing key")
	}
	if e.Update("nope", false, func(*Key[int, int]) {}) {
		t.Fatal("Update(create=false) must not create")
	}
	if e.Keys() != 1 {
		t.Fatalf("Keys = %d, want 1", e.Keys())
	}
}

func TestValueCopiedIntoArena(t *testing.T) {
	e := New[int, struct{}](0, 1)
	val := []byte{1, 2, 3}
	e.Install("x", Version[int]{Value: val, TS: 1})
	val[0] = 9
	if got := e.Latest("x"); got.Value[0] != 1 {
		t.Fatal("Install must copy the caller's value")
	}
	// Large values bypass the arena but must still be copied.
	big := make([]byte, arenaChunk)
	big[0] = 5
	e.Install("y", Version[int]{Value: big, TS: 1})
	big[0] = 6
	if got := e.Latest("y"); got.Value[0] != 5 {
		t.Fatal("large value must be copied too")
	}
}

func TestDefaultShardsBounds(t *testing.T) {
	n := DefaultShards()
	if n < 16 || n > 1024 || n&(n-1) != 0 {
		t.Fatalf("DefaultShards() = %d, want power of two in [16, 1024]", n)
	}
	if got := New[int, struct{}](0, 0).NumShards(); got != n {
		t.Fatalf("auto shards = %d, want %d", got, n)
	}
	if got := New[int, struct{}](0, 3).NumShards(); got != 4 {
		t.Fatalf("shards rounded = %d, want 4", got)
	}
	if got := New[int, struct{}](0, MaxShards*4).NumShards(); got != MaxShards {
		t.Fatalf("shards capped = %d, want %d", got, MaxShards)
	}
}

// Property test: concurrent installs, reads, locked updates, and iteration
// stay linearizable per key — every observed chain is sorted, duplicate-free,
// capped, and contains only versions that were actually written. Run under
// -race this is the engine's main memory-safety gate.
func TestConcurrentEngineOps(t *testing.T) {
	const (
		workers = 8
		keys    = 13
		cap     = 8
		iters   = 400
	)
	e := New[int, int](cap, 4)
	var wg sync.WaitGroup
	var stop atomic.Bool

	check := func(c *Chain[int]) {
		if c.Len() > cap {
			t.Errorf("chain over cap: %d", c.Len())
		}
		for i := 1; i < len(c.Versions); i++ {
			a, b := &c.Versions[i-1], &c.Versions[i]
			if !a.Before(b) {
				t.Errorf("chain unsorted or dup at %d: %+v %+v", i, a, b)
			}
		}
		for i := range c.Versions {
			ver := &c.Versions[i]
			// Every version carries its own TS in Value and Extra.
			if ver.Extra != int(ver.TS) || len(ver.Value) != 2 || ver.Value[0] != byte(ver.TS) {
				t.Errorf("torn version observed: %+v", ver)
			}
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", r.Intn(keys))
				switch r.Intn(4) {
				case 0:
					e.Install(key, v(uint64(r.Intn(64)+1), uint8(w%3)))
				case 1:
					if c := e.View(key); c != nil {
						check(c)
					}
				case 2:
					e.Update(key, true, func(k *Key[int, int]) {
						*k.Aux()++
						if c := k.Chain(); c.Len() > 0 {
							i := r.Intn(c.Len())
							k.SetExtra(i, int(c.Versions[i].TS))
						}
					})
				case 3:
					if l := e.Latest(key); l != nil && l.Extra != int(l.TS) {
						t.Errorf("torn latest: %+v", l)
					}
				}
			}
		}(w)
	}
	// A dedicated iterator hammers ForEach until the writers finish.
	iterDone := make(chan struct{})
	go func() {
		defer close(iterDone)
		for !stop.Load() {
			e.ForEach(func(_ string, c *Chain[int]) bool {
				check(c)
				return true
			})
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-iterDone
}

// Regression test for the tentpole: a slow ForEach callback (WAL snapshot
// emission doing disk I/O) must not stall writers. The pre-refactor stores
// held the shard lock across the callback, so a single slow iteration froze
// every install on that shard.
func TestWritersProgressDuringSlowIteration(t *testing.T) {
	e := New[int, struct{}](0, 1) // one shard: worst case
	for i := 0; i < 8; i++ {
		e.Install(fmt.Sprintf("k%d", i), v(1, 0))
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	iterDone := make(chan struct{})
	go func() {
		first := true
		e.ForEach(func(string, *Chain[int]) bool {
			if first {
				first = false
				close(entered)
				<-release // simulate slow disk I/O mid-iteration
			}
			return true
		})
		close(iterDone)
	}()
	<-entered
	// With the iterator parked inside the callback, a write on the same
	// shard must complete promptly.
	installed := make(chan struct{})
	go func() {
		e.Install("k0", v(2, 0))
		close(installed)
	}()
	select {
	case <-installed:
	case <-time.After(2 * time.Second):
		t.Fatal("install blocked behind a slow iteration callback")
	}
	close(release)
	<-iterDone
	if got := e.Latest("k0"); got.TS != 2 {
		t.Fatalf("latest k0 TS = %d, want 2", got.TS)
	}
}
