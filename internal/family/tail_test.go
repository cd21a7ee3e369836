package family_test

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestRecoveredTailResentAboveEachCursor: a recovering partition re-ships
// to each DC exactly the recovered local updates above that DC's cursor,
// once, and nothing at or below it, whichever source its streams draw on —
// core's batch cut or a dependency-list family's update queue. The log
// replays its updates off timestamp order, as group commit may leave them,
// and each source still ships them in timestamp order. Each DC's cursor
// ends at the highest timestamp its acknowledged shipments cover (the
// HighTS of core's one batch, the newest update's timestamp for the
// queue), never runs past it, and does not move on a heartbeat.
func TestRecoveredTailResentAboveEachCursor(t *testing.T) {
	const numDCs = 4
	var log []wal.Record
	for _, ts := range []uint64{20, 10, 30} { // replay is append order, not timestamp order
		log = append(log, wal.Record{Key: "k", TS: ts, DV: vclock.Vec{ts, 0, 0, 0}})
	}
	cursors := []wal.Cursor{{DstDC: 1, HighTS: 20}, {DstDC: 2, HighTS: 5}} // DC3 has acked nothing
	want := map[int][]uint64{1: {30}, 2: {10, 20, 30}, 3: {10, 20, 30}}

	for _, tc := range []struct {
		name  string
		start func(t *testing.T, net transport.Network, dur wal.Durability) (stop func())
	}{
		{"batch cut", func(t *testing.T, net transport.Network, dur wal.Durability) func() {
			s, err := core.NewServer(core.Config{NumDCs: numDCs, Durable: dur, RepFlushEvery: time.Millisecond}, net)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			return func() { s.Close() }
		}},
		{"update queue", func(t *testing.T, net transport.Network, dur wal.Durability) func() {
			s := family.NewLoServer("fam", 0, 0, numDCs, 1, dur, nil, family.LoStore{
				HasVersion: func(string, uint64, uint8) bool { return true },
				Install:    func(wal.Record, []wire.ReaderEntry) {},
				Snapshot:   func(func(wal.Record) error) error { return nil },
				Seal:       func() {},
			})
			if _, err := s.Replay(); err != nil {
				t.Fatal(err)
			}
			if err := s.Attach(net, func(wire.From, uint64, wire.Message) (family.Op, bool) { return family.Op{}, false }); err != nil {
				t.Fatal(err)
			}
			// Each stream launches its queue in timestamp order, which is what
			// sends an update's same-partition dependencies no later than the
			// update.
			if got := family.Queued(s); !reflect.DeepEqual(got, [][]uint64{want[1], want[2], want[3]}) {
				t.Fatalf("streams to DC1..DC3 queued %v before Start, want %v", got, want)
			}
			s.Start()
			return func() { s.Close() }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewLocal(transport.LatencyModel{})
			defer net.Close()
			type shipped struct {
				dc     int
				ts     []uint64 // the updates one message carried, in its order
				covers uint64
			}
			got := make(chan shipped, 64)
			for dc := 1; dc < numDCs; dc++ {
				if _, err := net.Attach(wire.ServerAddr(dc, 0), transport.HandlerFunc(
					func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
						switch m := m.(type) {
						case *wire.RepBatch:
							if len(m.Ups) > 0 { // a heartbeat ships nothing
								sh := shipped{dc: dc, covers: m.HighTS}
								for _, u := range m.Ups {
									sh.ts = append(sh.ts, u.TS)
								}
								got <- sh
							}
						case *wire.LoRepUpdate:
							got <- shipped{dc: dc, ts: []uint64{m.TS}, covers: m.TS}
						}
						_ = n.Respond(src, reqID, &wire.RepAck{})
					})); err != nil {
					t.Fatal(err)
				}
			}
			dur, cursorCh := family.RecoveringLog(log, cursors...)
			stop := tc.start(t, net, dur)
			defer stop()

			sent := map[int][]uint64{}
			covered := map[int]uint64{}
			for n := 0; n < len(want[1])+len(want[2])+len(want[3]); {
				select {
				case sh := <-got:
					if !slices.IsSorted(sh.ts) {
						t.Fatalf("DC%d was sent %v in one message, off timestamp order", sh.dc, sh.ts)
					}
					sent[sh.dc] = append(sent[sh.dc], sh.ts...)
					covered[sh.dc] = max(covered[sh.dc], sh.covers)
					n += len(sh.ts)
				case <-time.After(5 * time.Second):
					t.Fatalf("recovered tail not re-shipped to every DC: got %v", sent)
				}
			}
			select {
			case sh := <-got:
				t.Fatalf("DC%d was sent %v after the tail was shipped", sh.dc, sh.ts)
			case <-time.After(20 * time.Millisecond): // a score of heartbeats
			}
			for dc, w := range want {
				if ts := slices.Sorted(slices.Values(sent[dc])); !slices.Equal(ts, w) {
					t.Fatalf("DC%d was re-sent %v, want %v once", dc, ts, w)
				}
			}

			// Concurrent acks may append a queue's cursors out of order, so
			// each DC's cursor is the highest appended.
			high := map[int]uint64{}
			check := func(c wal.Cursor) {
				if d := int(c.DstDC); c.HighTS > covered[d] {
					t.Fatalf("cursor %+v runs past DC%d's shipments, which cover %d", c, d, covered[d])
				}
				high[int(c.DstDC)] = max(high[int(c.DstDC)], c.HighTS)
			}
			for !maps.Equal(high, covered) {
				select {
				case c := <-cursorCh:
					check(c)
				case <-time.After(5 * time.Second):
					t.Fatalf("cursors reached %v, want each DC's at what its shipments cover, %v", high, covered)
				}
			}
			// The quiet spell's heartbeats carried nothing, so they moved no
			// cursor past that.
			for len(cursorCh) > 0 {
				check(<-cursorCh)
			}
		})
	}
}
