package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func replayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func rec(i int) Record {
	return Record{
		Key:   fmt.Sprintf("key-%04d", i),
		Value: []byte(fmt.Sprintf("value-%04d", i)),
		TS:    uint64(i + 1),
		SrcDC: uint8(i % 3),
		DV:    vclock.Vec{uint64(i + 1), uint64(i)},
		Deps:  []wire.LoDep{{Key: "dep-a", TS: uint64(i)}, {Key: "dep-b", TS: 7}},
	}
}

func recEqual(a, b Record) bool {
	if a.Key != b.Key || a.TS != b.TS || a.SrcDC != b.SrcDC ||
		!bytes.Equal(a.Value, b.Value) || len(a.DV) != len(b.DV) || len(a.Deps) != len(b.Deps) {
		return false
	}
	for i := range a.DV {
		if a.DV[i] != b.DV[i] {
			return false
		}
	}
	for i := range a.Deps {
		if a.Deps[i] != b.Deps[i] {
			return false
		}
	}
	return true
}

// TestAppendReplayRoundTrip checks that every field of every record — DV
// vectors, COPS dependency lists, values — survives close and reopen.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	const n = 100
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Also exercise the multi-record form (a replication batch).
	batch := []Record{rec(n), rec(n + 1), rec(n + 2)}
	if err := l.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	got := replayAll(t, l2)
	if len(got) != n+3 {
		t.Fatalf("replayed %d records, want %d", len(got), n+3)
	}
	for i, g := range got {
		if !recEqual(g, rec(i)) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, g, rec(i))
		}
	}
	if v := l2.Stats().View(); v.RecoveredRecords != n+3 || v.RecoveryNanos == 0 {
		t.Fatalf("recovery stats: %+v", v)
	}
}

// TestEmptyDirReplay checks a fresh log replays nothing.
func TestEmptyDirReplay(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if got := replayAll(t, l); len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
}

// newestSegment returns the path of the highest-sequence segment file.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	sort.Strings(segs)
	return filepath.Join(dir, segs[len(segs)-1])
}

// TestTornFinalRecordTolerated simulates a crash mid-append: a half-written
// record at the tail of the last segment must not block recovery of the
// records before it, for each of the three ways a tear can look (short
// header, short body, CRC mismatch).
func TestTornFinalRecordTolerated(t *testing.T) {
	tears := map[string][]byte{
		// Claims a 512-byte body but delivers 10: torn body.
		"short-body": append([]byte{0, 2, 0, 0, 0xde, 0xad, 0xbe, 0xef}, make([]byte, 10)...),
		// Fewer than 8 bytes: torn header.
		"short-header": {0x42, 0x42, 0x42},
		// Full frame, wrong CRC: bits lost in the page cache.
		"bad-crc": {4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4},
	}
	for name, junk := range tears {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, Options{Dir: dir})
			const n = 25
			for i := 0; i < n; i++ {
				if err := l.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			seg := newestSegment(t, dir)
			f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(junk); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l2 := mustOpen(t, Options{Dir: dir})
			got := replayAll(t, l2)
			if len(got) != n {
				t.Fatalf("replayed %d records after torn tail, want %d", len(got), n)
			}
			if v := l2.Stats().View(); v.TornTails != 1 {
				t.Fatalf("TornTails = %d, want 1", v.TornTails)
			}
			// The log must still accept appends after a torn-tail recovery.
			if err := l2.Append(rec(n)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornHeaderFinalSegmentDiscarded simulates a crash mid-rotation: the
// new active segment's header was being written when the machine died, so
// the newest file on disk has a short or garbled header. openSegment fsyncs
// the header before the first append ever lands, so such a segment provably
// holds no durable record — recovery must delete it and carry on, for each
// of the ways the tear can look.
func TestTornHeaderFinalSegmentDiscarded(t *testing.T) {
	badMagic := make([]byte, fileHdrLen)
	copy(badMagic, "NOTAWAL0")
	tears := map[string][]byte{
		"short-header": {0x43, 0x4b, 0x56}, // first bytes of the magic, then the crash
		"empty-file":   {},
		"bad-magic":    badMagic,
	}
	for name, junk := range tears {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, Options{Dir: dir})
			const n = 25
			for i := 0; i < n; i++ {
				if err := l.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			// Manufacture the mid-rotate debris: a next-sequence segment
			// whose header never finished.
			prev := newestSegment(t, dir)
			var seq uint64
			if _, err := fmt.Sscanf(filepath.Base(prev), "seg-%d.wal", &seq); err != nil {
				t.Fatal(err)
			}
			torn := filepath.Join(dir, segName(seq+1))
			if err := os.WriteFile(torn, junk, 0o644); err != nil {
				t.Fatal(err)
			}

			l2 := mustOpen(t, Options{Dir: dir})
			got := replayAll(t, l2)
			if len(got) != n {
				t.Fatalf("replayed %d records after torn-header segment, want %d", len(got), n)
			}
			if v := l2.Stats().View(); v.TornSegments != 1 {
				t.Fatalf("TornSegments = %d, want 1", v.TornSegments)
			}
			// The debris was deleted; the same sequence number is then
			// reused for the fresh active segment, so the path exists again
			// but now with a fully synced header.
			if err := checkHeader(torn, segMagic, seq+1); err != nil {
				t.Fatalf("active segment after torn-header recovery: %v", err)
			}
			// The log must keep working after discarding the debris.
			if err := l2.Append(rec(n)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornHeaderMidStreamRejected: a bad header on a NON-final segment is
// not rotation debris — records were durably appended after it, so the
// segment was once valid and its loss is real corruption. Recovery must
// fail loudly, not skip it.
func TestTornHeaderMidStreamRejected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	const n = 10
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Garble the (only) sealed segment's magic, then add a structurally
	// valid empty segment after it so the damaged one is mid-stream.
	seg := newestSegment(t, dir)
	var seq uint64
	if _, err := fmt.Sscanf(filepath.Base(seg), "seg-%d.wal", &seq); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[:8], "NOTAWAL0")
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	next := make([]byte, fileHdrLen)
	copy(next[:8], segMagic[:])
	for i, b := range u64le(seq + 1) {
		next[8+i] = b
	}
	if err := os.WriteFile(filepath.Join(dir, segName(seq+1)), next, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	if err := l2.Replay(func(Record) error { return nil }); err == nil {
		t.Fatal("mid-stream torn header silently skipped: durable records were lost without a report")
	}
}

// u64le is a test helper: seq encoded the way segment headers store it.
func u64le(v uint64) [8]byte {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// TestCorruptMidSegmentRejected: damage before the final segment's tail is
// unrecoverable data loss and must be reported, not skipped.
func TestCorruptMidSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so the corruption lands mid-stream.
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 0; i < 50; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Corrupt a record body in the FIRST segment.
	entries, _ := os.ReadDir(dir)
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	if len(segs) < 3 {
		t.Fatalf("rotation produced only %d segments", len(segs))
	}
	first := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < fileHdrLen+recHdrLen+4 {
		t.Fatalf("first segment too small to corrupt (%d bytes)", len(data))
	}
	data[fileHdrLen+recHdrLen+2] ^= 0xff // flip a byte inside the first record body
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	err = l2.Replay(func(Record) error { return nil })
	if err == nil {
		t.Fatal("mid-segment corruption silently skipped")
	}
}

// TestSegmentRotation checks that a small SegmentBytes produces multiple
// segments and that replay stitches them back in order.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 512})
	const n = 64
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if v := l.Stats().View(); v.Segments < 3 {
		t.Fatalf("expected >= 3 segments, got %d", v.Segments)
	}
	l.Close()
	l2 := mustOpen(t, Options{Dir: dir})
	got := replayAll(t, l2)
	if len(got) != n {
		t.Fatalf("replayed %d, want %d", len(got), n)
	}
	for i := range got {
		if got[i].TS != uint64(i+1) {
			t.Fatalf("replay out of order at %d: ts %d", i, got[i].TS)
		}
	}
}

// TestSnapshotTruncatesAndRecovers: a snapshot must cover the sealed
// segments (which are then deleted) while later appends replay from the
// remaining tail.
func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 512})

	// The "store": latest version per key, as a protocol server would hold.
	var mu sync.Mutex
	store := map[string]Record{}
	install := func(r Record) {
		mu.Lock()
		if cur, ok := store[r.Key]; !ok || r.TS > cur.TS {
			store[r.Key] = r
		}
		mu.Unlock()
	}
	l.SetSnapshotSource(func(emit func(Record) error) error {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range store {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	})

	append1 := 40
	for i := 0; i < append1; i++ {
		r := rec(i)
		install(r)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if v := l.Stats().View(); v.Snapshots != 1 || v.SnapshotRecords != uint64(append1) || v.Truncated == 0 {
		t.Fatalf("snapshot stats: %+v", v)
	}
	// Overwrite some keys and add new ones after the snapshot.
	for i := 35; i < 50; i++ {
		r := rec(i)
		r.TS = uint64(100 + i) // newer than any pre-snapshot version
		install(r)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	latest := map[string]Record{}
	if err := l2.Replay(func(r Record) error {
		if cur, ok := latest[r.Key]; !ok || r.TS > cur.TS {
			latest[r.Key] = r
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(latest) != 50 {
		t.Fatalf("recovered %d keys, want 50", len(latest))
	}
	mu.Lock()
	defer mu.Unlock()
	for k, want := range store {
		if got, ok := latest[k]; !ok || !recEqual(got, want) {
			t.Fatalf("key %s: got %+v want %+v", k, latest[k], want)
		}
	}
}

// TestSnapshotWithoutSourceFails documents that Snapshot needs a source.
func TestSnapshotWithoutSourceFails(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Snapshot(); err == nil {
		t.Fatal("Snapshot without a source succeeded")
	}
}

// TestPeriodicSnapshots checks the snapshot loop fires on its own.
func TestPeriodicSnapshots(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), SnapshotEvery: 10 * time.Millisecond})
	l.SetSnapshotSource(func(emit func(Record) error) error { return emit(rec(0)) })
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().View().Snapshots < 2 {
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshots never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGroupCommitCoalesces drives concurrent appenders and checks that the
// committer retires many records per fsync — the amortization that makes
// durable writes affordable (appends/fsync > 1 is also the acceptance bar
// for the bench plumbing).
func TestGroupCommitCoalesces(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	const (
		writers = 32
		perW    = 16
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := l.Append(rec(w*perW + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	v := l.Stats().View()
	if v.Appends != writers*perW {
		t.Fatalf("Appends = %d, want %d", v.Appends, writers*perW)
	}
	if v.Fsyncs >= v.Appends {
		t.Fatalf("no group-commit amortization: %d fsyncs for %d appends", v.Fsyncs, v.Appends)
	}
	if v.BatchPeak < 2 {
		t.Fatalf("BatchPeak = %d, want >= 2", v.BatchPeak)
	}
	t.Logf("group commit: %d appends, %d fsyncs (%.1f appends/fsync, peak batch %d)",
		v.Appends, v.Fsyncs, v.AppendsPerFsync(), v.BatchPeak)
}

// TestWriteFailurePoisonsLog: after any segment write/rotate failure, a
// partial record may sit mid-file where recovery cannot see past it, so
// the log must refuse every later append (sticky error) instead of
// acknowledging records that replay would silently drop — even if the
// underlying condition clears.
func TestWriteFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1 forces a rotation before every commit after the first
	// header write; pre-creating the next segment makes that rotation fail
	// deterministically (openSegment uses O_EXCL).
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 1})
	blocker := filepath.Join(dir, segName(2))
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(0)); err == nil {
		t.Fatal("append succeeded through a failed rotation")
	}
	if err := l.Append(rec(1)); err == nil {
		t.Fatal("append succeeded on a poisoned log")
	}
	// Clearing the condition must NOT revive the log: the damage already
	// on disk is permanent until restart-time recovery.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(2)); err == nil {
		t.Fatal("poisoned log revived after the failure cleared")
	}
}

// TestAppendAfterCloseFails checks shutdown fails cleanly.
func TestAppendAfterCloseFails(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if err := l.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(rec(1)); err == nil {
		t.Fatal("append after Close succeeded")
	}
}
