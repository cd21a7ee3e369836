package bench

import (
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mvstore"
	"repro/internal/vclock"
)

// This file is the storage-engine figure: the generic sharded engine
// (internal/store, lock-free reads, arena-pooled versions) against the
// pre-refactor locked store, vendored below, at multi-million-key scale.
// Same machine, same trace, same process — fill throughput, read
// throughput with and without concurrent writers, allocation volume, GC
// pause tail, live heap, and RSS.

// kvStore is the surface both implementations expose to the driver.
type kvStore interface {
	Install(key string, v mvstore.Version) bool
	ReadLatest(key string) (mvstore.Version, bool)
	ReadAtSnapshot(key string, sv vclock.Vec) (mvstore.Version, bool)
	Keys() int
}

// lockedStore is the pre-refactor mvstore, vendored as the benchmark
// baseline: 64 fixed shards, one RWMutex each, chains mutated in place
// under the lock, every value individually allocated. Reads and iteration
// take the read lock; installs take the write lock.
type lockedStore struct {
	shards      [64]lockedShard
	maxVersions int
	seed        maphash.Seed
}

type lockedShard struct {
	mu sync.RWMutex
	m  map[string]*lockedChain
}

type lockedChain struct {
	versions []mvstore.Version
	trimmed  bool
}

func newLockedStore(maxVersions int) *lockedStore {
	s := &lockedStore{maxVersions: maxVersions, seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*lockedChain)
	}
	return s
}

func (s *lockedStore) shard(key string) *lockedShard {
	return &s.shards[maphash.String(s.seed, key)%64]
}

func (s *lockedStore) Install(key string, v mvstore.Version) bool {
	// The old store did not copy values into arenas; keep that behavior so
	// the baseline's allocation profile is the pre-refactor one. Values
	// handed to the benchmark are already private per install.
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.m[key]
	if c == nil {
		c = &lockedChain{}
		sh.m[key] = c
	}
	i := len(c.versions)
	for i > 0 && v.Before(&c.versions[i-1]) {
		i--
	}
	if i > 0 && c.versions[i-1].TS == v.TS && c.versions[i-1].SrcDC == v.SrcDC {
		return i == len(c.versions)
	}
	c.versions = append(c.versions, mvstore.Version{})
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

func (s *lockedStore) ReadLatest(key string) (mvstore.Version, bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c := sh.m[key]
	if c == nil || len(c.versions) == 0 {
		return mvstore.Version{}, false
	}
	return c.versions[len(c.versions)-1], true
}

func (s *lockedStore) ReadAtSnapshot(key string, sv vclock.Vec) (mvstore.Version, bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c := sh.m[key]
	if c == nil || len(c.versions) == 0 {
		return mvstore.Version{}, false
	}
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].DV.LEQ(sv) {
			return c.versions[i], true
		}
	}
	if c.trimmed {
		return c.versions[0], true
	}
	return mvstore.Version{}, false
}

func (s *lockedStore) Keys() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// engineStore adapts the engine-backed mvstore to the benchmark surface.
type engineStore struct{ *mvstore.Store }

// ReadAtSnapshot folds a refusal into a miss: the figure's snapshots cover
// every version it writes, so neither happens.
func (s engineStore) ReadAtSnapshot(key string, sv vclock.Vec) (mvstore.Version, bool) {
	v, ok, err := s.Store.ReadAtSnapshot(key, sv)
	return v, ok && err == nil
}

// StorePhase is one measured phase of the store figure.
type StorePhase struct {
	Name      string
	Ops       uint64
	OpsPerSec float64
	// AllocsPerOp counts heap objects per operation (the GC-mark-cost
	// driver the engine's slabs and arenas amortize away);
	// AllocBytesPerOp counts bytes. The engine trades slightly more bytes
	// on writes (it copies values into arenas instead of retaining the
	// caller's buffer) for orders of magnitude fewer objects.
	AllocsPerOp     float64
	AllocBytesPerOp float64
}

// StoreStats is one implementation's full store-figure measurement.
type StoreStats struct {
	Impl   string
	Keys   int
	Shards int // 0 = auto (engine); the baseline is fixed at 64
	Phases []StorePhase
	// GCPauseP99 is the 99th-percentile stop-the-world GC pause observed
	// across this implementation's phases.
	GCPauseP99 time.Duration
	// LiveHeapBytes is HeapAlloc after a forced GC with the filled store
	// live; RSSBytes is the OS-resident set at the same point.
	LiveHeapBytes uint64
	RSSBytes      uint64
}

// gcPauses reads the runtime's GC pause histogram.
func gcPauses() *rtmetrics.Float64Histogram {
	samples := []rtmetrics.Sample{{Name: "/gc/pauses:seconds"}}
	rtmetrics.Read(samples)
	if samples[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		return nil
	}
	return samples[0].Value.Float64Histogram()
}

// pauseP99 computes the p99 of the pause-histogram delta b−a.
func pauseP99(a, b *rtmetrics.Float64Histogram) time.Duration {
	if a == nil || b == nil {
		return 0
	}
	counts := make([]uint64, len(b.Counts))
	var total uint64
	for i := range counts {
		c := b.Counts[i]
		if i < len(a.Counts) {
			c -= a.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	target := total - total/100 // ceil-ish p99 rank
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			// Buckets[i+1] is the bucket's upper bound in seconds.
			if i+1 < len(b.Buckets) {
				return time.Duration(b.Buckets[i+1] * float64(time.Second))
			}
			return time.Duration(b.Buckets[len(b.Buckets)-1] * float64(time.Second))
		}
	}
	return 0
}

// rssBytes reads the process resident set from /proc/self/statm (0 where
// unsupported).
func rssBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// storeKeyName formats the i'th benchmark key. Keys are pregenerated so key
// formatting is outside the measured loop.
func storeKeyName(i int) string { return "key-" + strconv.Itoa(i) }

// runStorePhases drives one implementation through the figure's phases and
// returns its measurement. workers is the goroutine count per phase.
func runStorePhases(impl string, st kvStore, keys, workers, valueSize int) StoreStats {
	stats := StoreStats{Impl: impl, Keys: keys}
	names := make([]string, keys)
	for i := range names {
		names[i] = storeKeyName(i)
	}
	phase := func(name string, ops int, fn func(w, lo, hi int)) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		var wg sync.WaitGroup
		per := (ops + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * per
			hi := min(lo+per, ops)
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				fn(w, lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
		dur := time.Since(start)
		runtime.ReadMemStats(&m1)
		stats.Phases = append(stats.Phases, StorePhase{
			Name:            name,
			Ops:             uint64(ops),
			OpsPerSec:       float64(ops) / dur.Seconds(),
			AllocsPerOp:     float64(m1.Mallocs-m0.Mallocs) / float64(ops),
			AllocBytesPerOp: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		})
	}

	pauses0 := gcPauses()

	// Every install carries a freshly allocated value, like the decoded wire
	// buffer the real write path hands the store: the baseline retains it
	// verbatim, the engine copies it into an arena and lets it die young.
	// Sharing one buffer across installs would hand the baseline the whole
	// value population for free.

	// Fill: every key once, ascending timestamps per worker stripe.
	phase("fill", keys, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			ts := uint64(i + 1)
			st.Install(names[i], mvstore.Version{Value: make([]byte, valueSize), TS: ts, DV: vclock.Vec{ts, 0}})
		}
	})

	// Overwrite: a second version for 10% of keys — exercises chain
	// insert/extend on warm keys rather than map growth.
	over := keys / 10
	phase("overwrite", over, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			k := i * 10 % keys
			ts := uint64(keys + i + 1)
			st.Install(names[k], mvstore.Version{Value: make([]byte, valueSize), TS: ts, DV: vclock.Vec{ts, 0}})
		}
	})

	// Read-latest: uniform random point reads, no writers.
	reads := keys * 2
	phase("read-latest", reads, func(w, lo, hi int) {
		r := rand.New(rand.NewSource(int64(w)*7919 + 1))
		for i := lo; i < hi; i++ {
			if _, ok := st.ReadLatest(names[r.Intn(keys)]); !ok {
				panic("benchmark read missed a filled key")
			}
		}
	})

	// Snapshot reads: chain scans under the visibility rule.
	phase("read-snapshot", reads, func(w, lo, hi int) {
		r := rand.New(rand.NewSource(int64(w)*104729 + 1))
		sv := vclock.Vec{uint64(2 * keys), uint64(2 * keys)}
		for i := lo; i < hi; i++ {
			if _, ok := st.ReadAtSnapshot(names[r.Intn(keys)], sv); !ok {
				panic("benchmark snapshot read missed a filled key")
			}
		}
	})

	// Read-under-write: the contended case the refactor targets — every
	// worker but one reads while the last streams installs over hot keys.
	phase("read-under-write", reads, func(w, lo, hi int) {
		if w == workers-1 && workers > 1 {
			for i := lo; i < hi; i++ {
				k := i % (keys / 100)
				ts := uint64(2*keys + i + 1)
				st.Install(names[k], mvstore.Version{Value: make([]byte, valueSize), TS: ts, DV: vclock.Vec{ts, 0}})
			}
			return
		}
		r := rand.New(rand.NewSource(int64(w)*31337 + 1))
		for i := lo; i < hi; i++ {
			st.ReadLatest(names[r.Intn(keys)])
		}
	})

	stats.GCPauseP99 = pauseP99(pauses0, gcPauses())

	// Footprint with the filled store live.
	runtime.GC()
	debug.FreeOSMemory()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	stats.LiveHeapBytes = m.HeapAlloc
	stats.RSSBytes = rssBytes()
	if got := st.Keys(); got != keys {
		panic(fmt.Sprintf("store bench: %d keys present, want %d", got, keys))
	}
	return stats
}

// FigureStore measures the engine-backed store against the vendored
// pre-refactor baseline at `keys` scale and returns one Series per
// implementation. shards parameterizes the engine (0 = auto); the baseline
// always runs its historical fixed 64. workers ≤ 0 auto-sizes.
func FigureStore(keys, shards, workers int, out io.Writer) ([]Series, error) {
	if keys <= 0 {
		keys = 10_000_000
	}
	if workers <= 0 {
		workers = max(4, runtime.GOMAXPROCS(0))
	}
	const valueSize = 64
	const maxVersions = 4
	fmt.Fprintf(out, "store figure: %d keys, value %dB, %d workers\n", keys, valueSize, workers)

	var series []Series
	run := func(impl string, st kvStore, shards int) {
		s := runStorePhases(impl, st, keys, workers, valueSize)
		s.Shards = shards
		pt := Point{System: impl, Store: &s}
		series = append(series, Series{Label: "store/" + impl, Points: []Point{pt}})
		for _, ph := range s.Phases {
			fmt.Fprintf(out, "  %-16s %-18s %12.0f ops/s  %6.3f allocs/op  %8.1f B/op\n",
				impl, ph.Name, ph.OpsPerSec, ph.AllocsPerOp, ph.AllocBytesPerOp)
		}
		fmt.Fprintf(out, "  %-16s gc-pause p99 %v, live heap %.1f MiB, RSS %.1f MiB\n",
			impl, s.GCPauseP99, float64(s.LiveHeapBytes)/(1<<20), float64(s.RSSBytes)/(1<<20))
	}

	// Baseline first so its RSS high-water mark is not inflated by pages
	// the engine run already faulted in.
	base := newLockedStore(maxVersions)
	run("locked-baseline", base, 64)
	releaseStore(&base.shards)

	eng := engineStore{mvstore.NewSharded(maxVersions, shards)}
	run("engine", eng, shards)

	sort.Slice(series, func(i, j int) bool { return series[i].Label < series[j].Label })
	return series, nil
}

// releaseStore drops the baseline's memory and returns it to the OS before
// the next implementation is measured.
func releaseStore(shards *[64]lockedShard) {
	for i := range shards {
		shards[i].m = nil
	}
	runtime.GC()
	debug.FreeOSMemory()
}
