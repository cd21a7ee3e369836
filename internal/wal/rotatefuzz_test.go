package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// fuzzRec builds the i-th fuzz record: a unique key (so replay folding is
// trivially last-write-wins with one version per key) and a value bulky
// enough that tiny segments rotate every handful of appends.
func fuzzRec(i int) Record {
	r := rec(i)
	r.Key = fmt.Sprintf("fz-%05d", i)
	r.Value = bytes.Repeat([]byte{byte(i)}, 64+i%128)
	return r
}

// FuzzWALRotationCrash drives a WAL with 1 KiB segments — so rotation
// happens every few appends — through a fuzzer-chosen interleaving of
// appends, explicit snapshots, cursor updates, and epoch bumps, then
// crashes it (truncate to the fsynced prefix, the in-process kill -9) and
// checks the full recovery contract:
//
//   - replay succeeds — rotation boundaries, snapshot cuts, and the torn
//     tail never break recovery;
//   - every acknowledged append is recovered byte-for-byte (SyncAlways:
//     acked ⇒ fsynced), whether it comes back from a snapshot or a segment;
//   - nothing is fabricated: every replayed record matches an acked one;
//   - the restart epoch and replication cursor survive;
//   - and the recovered log is reusable: post-recovery appends survive a
//     clean close/reopen together with the pre-crash state.
//
// CI runs the seed corpus on every `go test` plus a short -fuzz burst.
func FuzzWALRotationCrash(f *testing.F) {
	f.Add([]byte{})                                                                       // open, crash empty
	f.Add(bytes.Repeat([]byte{0}, 64))                                                    // appends only: pure rotation
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 12))                               // everything interleaved
	f.Add(append(append(bytes.Repeat([]byte{0}, 30), 5), bytes.Repeat([]byte{2}, 30)...)) // snapshot mid-stream
	f.Add(bytes.Repeat([]byte{6, 7, 5}, 20))                                              // cursor/epoch/snapshot churn

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		dir := t.TempDir()
		opts := Options{Dir: dir, SegmentBytes: 1 << 10}
		l, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}

		acked := make(map[string]Record) // key -> the durably acknowledged record
		l.SetSnapshotSource(func(emit func(Record) error) error {
			for _, r := range acked {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		})

		seq, epoch, cursorTS := 0, uint64(0), uint64(0)
		for _, b := range script {
			switch b % 8 {
			case 5: // explicit snapshot: rotate, compact, truncate old segments
				if err := l.Snapshot(); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
			case 6:
				cursorTS++
				if err := l.AppendCursor(Cursor{DstDC: 1, HighTS: cursorTS}); err != nil {
					t.Fatalf("cursor: %v", err)
				}
			case 7:
				epoch++
				if err := l.SetEpoch(epoch); err != nil {
					t.Fatalf("epoch: %v", err)
				}
			default: // the common op: an acknowledged durable append
				r := fuzzRec(seq)
				seq++
				if err := l.Append(r); err != nil {
					t.Fatalf("append: %v", err)
				}
				acked[r.Key] = r
			}
		}
		if err := l.Crash(); err != nil {
			t.Fatal(err)
		}

		check := func(l *Log, phase string) {
			recovered := make(map[string]bool)
			if err := l.Replay(func(r Record) error {
				orig, ok := acked[r.Key]
				if !ok {
					return fmt.Errorf("replayed record %q was never acked", r.Key)
				}
				if !recEqual(orig, r) {
					return fmt.Errorf("record %q corrupted: %+v != %+v", r.Key, r, orig)
				}
				recovered[r.Key] = true
				return nil
			}); err != nil {
				t.Fatalf("%s replay: %v", phase, err)
			}
			for k := range acked {
				if !recovered[k] {
					t.Fatalf("%s: acked record %q lost", phase, k)
				}
			}
			if got := l.Epoch(); got != epoch {
				t.Fatalf("%s: epoch %d, want %d", phase, got, epoch)
			}
			if cursorTS > 0 {
				cs := l.Cursors()
				if len(cs) != 1 || cs[0].HighTS != cursorTS {
					t.Fatalf("%s: cursors %+v, want one at HighTS %d", phase, cs, cursorTS)
				}
			}
		}

		l2, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen after crash: %v", err)
		}
		check(l2, "post-crash")

		// The recovered log must be fully writable again, and a clean
		// shutdown must preserve old and new state alike.
		post := fuzzRec(seq)
		if err := l2.Append(post); err != nil {
			t.Fatalf("post-recovery append: %v", err)
		}
		acked[post.Key] = post
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen after clean close: %v", err)
		}
		defer l3.Close()
		check(l3, "post-close")
	})
}
