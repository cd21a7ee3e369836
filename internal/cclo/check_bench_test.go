package cclo

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// checkFixture is one partition's store set up for a readers check: each of
// keys dependency keys was read, inside the GC window, by rots successive
// ROTs of each of clients clients, and then superseded — so every one of
// those ROTs is an old reader of every key. deps names each key at its new
// version.
func checkFixture(keys, clients, rots int) (*Server, []wire.LoDep, time.Time) {
	s := &Server{store: newLoStore(1, time.Minute, false)}
	now := time.Now()
	deps := make([]wire.LoDep, keys)
	for k := range deps {
		key := fmt.Sprintf("dep%02d", k)
		s.store.install(key, loVersion{ts: 1}, nil, now)
		for seq := 1; seq <= rots; seq++ {
			for c := 0; c < clients; c++ {
				s.store.read(key, uint64(wire.ClientAddr(0, c))<<32|uint64(seq), uint64(seq*clients+c), now)
			}
		}
		s.store.install(key, loVersion{ts: 1000}, nil, now) // readers → old readers
		deps[k] = wire.LoDep{Key: key, TS: 1000}
	}
	return s, deps, now
}

// TestReadersCheckAllocs: the responder side of a readers check merges into
// pooled scratch, so once the scratch has grown it allocates nothing, however
// many keys and old readers it walks; the only allocation of the whole answer
// is the reader list that outlives the handler.
func TestReadersCheckAllocs(t *testing.T) {
	s, deps, now := checkFixture(4, 64, 4)
	var out slotSet
	collect := func() { out, _ = s.collectDeps(deps, now, out[:0]) }
	collect()
	if len(out) != 64 {
		t.Fatalf("collected %d ROTs, want one per client (64)", len(out))
	}
	if n := testing.AllocsPerRun(200, collect); n != 0 {
		t.Fatalf("collecting 4 keys × 64 clients allocates %.1f times per check, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { collect(); _ = wireReaders(out) }); n != 1 {
		t.Fatalf("a full answer allocates %.1f times, want 1 (the shipped reader list)", n)
	}
}

// checkBenchRow is one BenchmarkReadersCheck cell as written to
// $BENCH_CCLO_JSON, in the shape of the committed BENCH_cclo.json (which adds
// the parent commit's columns and the end-to-end runs).
type checkBenchRow struct {
	Keys          int `json:"keys"`
	Clients       int `json:"clients"`
	RotsPerClient int `json:"rots_per_client"`
	Change        struct {
		NsPerCheck     float64 `json:"ns_per_check"`
		BytesPerCheck  float64 `json:"bytes_per_check"`
		AllocsPerCheck float64 `json:"allocs_per_check"`
		IDsScanned     int     `json:"ids_scanned"`
		IDsReturned    int     `json:"ids_returned"`
	} `json:"change"`
}

// BenchmarkReadersCheck measures what one partition does to answer a readers
// check — walk every dependency key's old readers, merge them one per client,
// build the reader list to ship — across keys per check × clients × live ROTs
// per client in the GC window. ids_scanned is Figure 6's "cumulative" column
// for this answer, ids_returned its "distinct" one. With BENCH_CCLO_JSON set
// the cells are also written there as JSON.
func BenchmarkReadersCheck(b *testing.B) {
	var rows []checkBenchRow
	for _, keys := range []int{1, 4} {
		for _, clients := range []int{16, 256} {
			for _, rots := range []int{1, 8} {
				row := checkBenchRow{Keys: keys, Clients: clients, RotsPerClient: rots}
				b.Run(fmt.Sprintf("keys=%d/clients=%d/rots=%d", keys, clients, rots), func(b *testing.B) {
					s, deps, now := checkFixture(keys, clients, rots)
					var out slotSet
					var scanned, returned int
					var before, after runtime.MemStats
					b.ReportAllocs()
					runtime.ReadMemStats(&before)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						out, scanned = s.collectDeps(deps, now, out[:0])
						returned = len(wireReaders(out))
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					if returned != clients {
						b.Fatalf("returned %d ids, want one per client (%d)", returned, clients)
					}
					b.ReportMetric(float64(scanned), "ids-scanned/check")
					// The sizing calls overwrite each other; the last one,
					// at the full b.N, is what stays.
					c, n := &row.Change, float64(b.N)
					c.NsPerCheck = float64(b.Elapsed().Nanoseconds()) / n
					c.BytesPerCheck = float64(after.TotalAlloc-before.TotalAlloc) / n
					c.AllocsPerCheck = float64(after.Mallocs-before.Mallocs) / n
					c.IDsScanned, c.IDsReturned = scanned, returned
				})
				if row.Change.IDsReturned > 0 { // not filtered out by -bench
					rows = append(rows, row)
				}
			}
		}
	}
	if path := os.Getenv("BENCH_CCLO_JSON"); path != "" {
		doc := map[string]any{"readers_check": map[string]any{"rows": rows}}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			b.Fatalf("write %s: %v", path, err)
		}
	}
}
