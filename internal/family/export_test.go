package family

import (
	"slices"

	"repro/internal/wal"
)

// What the external tests of this package (package family_test, which may
// import the families built on it) reach of its internals.

// RecoveringLog returns an in-memory log that replays log and recovers
// cursors, and the channel every cursor appended to it arrives on.
func RecoveringLog(log []wal.Record, cursors ...wal.Cursor) (wal.Durability, <-chan wal.Cursor) {
	d := newFakeDurable(cursors...)
	d.log = slices.Clone(log)
	return d, d.cursorCh
}

// Queued returns the timestamps each of s's replication streams holds and
// has not launched, one list per remote DC in DC order.
func Queued(s *LoServer) [][]uint64 {
	var out [][]uint64
	for _, q := range s.repl.queues {
		var ts []uint64
		for _, u := range q.queued() {
			ts = append(ts, u.TS)
		}
		out = append(out, ts)
	}
	return out
}
