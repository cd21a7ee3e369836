package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCursorPersistRecover checks the durable cursor table: appended
// cursors survive close + reopen, each DC keeps its highest HighTS (a
// lower cursor appended later does not take it back), and the table is
// folded into snapshots so segment truncation never loses it.
func TestCursorPersistRecover(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 10; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []Cursor{{DstDC: 1, HighTS: 30}, {DstDC: 2, HighTS: 80}, {DstDC: 1, HighTS: 44}, {DstDC: 1, HighTS: 40}} {
		if err := l.AppendCursor(c); err != nil {
			t.Fatal(err)
		}
	}
	want := []Cursor{{DstDC: 1, HighTS: 44}, {DstDC: 2, HighTS: 80}}
	if cur := l.Cursors(); len(cur) != 2 || cur[0] != want[0] || cur[1] != want[1] {
		t.Fatalf("cursor table %+v, want %+v", cur, want)
	}
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	if n := len(replayAll(t, l2)); n != 10 {
		t.Fatalf("replayed %d installs, want 10 (cursor records must not reach apply)", n)
	}
	cur := l2.Cursors()
	if len(cur) != 2 {
		t.Fatalf("cursors = %+v, want 2 entries", cur)
	}
	if cur[0] != want[0] || cur[1] != want[1] {
		t.Fatalf("recovered cursors %+v, want %+v", cur, want)
	}
	if v := l2.Stats().View(); v.CursorsRecovered != 4 {
		t.Fatalf("CursorsRecovered = %d, want 4", v.CursorsRecovered)
	}

	// Snapshot: truncates every sealed segment (where all cursor records
	// live) — the table must ride along in the snapshot file.
	l2.SetSnapshotSource(func(emit func(Record) error) error {
		return emit(rec(99))
	})
	if err := l2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	l3 := mustOpen(t, Options{Dir: dir})
	replayAll(t, l3) // recovery (and the cursor table) fills during Replay
	cur = l3.Cursors()
	if len(cur) != 2 || cur[0] != want[0] || cur[1] != want[1] {
		t.Fatalf("cursors after snapshot truncation: %+v", cur)
	}
}

// TestTornCursorTailTolerated: a torn cursor record at the log tail (the
// crash landed mid-cursor-write) must be shrugged off, falling back to the
// previous durable cursor.
func TestTornCursorTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCursor(Cursor{DstDC: 1, HighTS: 70}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Append a half-written record to the newest segment.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs = append(segs, e.Name())
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1]), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'x'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	if n := len(replayAll(t, l2)); n != 1 {
		t.Fatalf("replayed %d installs, want 1", n)
	}
	cur := l2.Cursors()
	if len(cur) != 1 || cur[0] != (Cursor{DstDC: 1, HighTS: 70}) {
		t.Fatalf("cursors after torn tail: %+v", cur)
	}
	if v := l2.Stats().View(); v.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", v.TornTails)
	}
}

// TestCrashSyncModeKeepsAcked: under SyncAlways, Crash() — which discards
// everything the last fsync did not cover — must keep every append that
// returned successfully.
func TestCrashSyncModeKeepsAcked(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	if got := len(replayAll(t, l2)); got != n {
		t.Fatalf("replayed %d records after crash, want %d (sync mode: acked ⇒ durable)", got, n)
	}
}

// TestAsyncModeLossWindowBounded pins the SyncBackground contract with a
// deterministic fsync boundary: a segment rotation fsyncs everything before
// it, so records appended before the rotation survive a crash and records
// after it (acknowledged inside the window, fsync still pending) are lost —
// and only those.
func TestAsyncModeLossWindowBounded(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{
		Dir:          dir,
		Sync:         SyncBackground,
		FsyncEvery:   time.Hour, // never: the rotation is the only fsync
		SegmentBytes: 1,         // every commit rotates first
	})
	if err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	if err := l.AppendSynced([]Record{rec(0)}, func(e error) { synced <- e }); err != nil {
		t.Fatal(err)
	}
	// rec(0) is written but not fsynced; its synced callback is pending.
	select {
	case <-synced:
		t.Fatal("synced fired before any fsync")
	default:
	}
	// The next append rotates the segment first, fsyncing rec(0).
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if e := <-synced; e != nil {
		t.Fatalf("synced(err=%v) after covering rotation", e)
	}
	// rec(1) sits un-fsynced in the new active segment: the loss window.
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	recs := replayAll(t, l2)
	if len(recs) != 1 || !recEqual(recs[0], rec(0)) {
		t.Fatalf("after async crash: %d records (%+v), want exactly the fsynced rec(0)", len(recs), recs)
	}
}

// TestAsyncModeAmortizesFsyncs: with background fsync, even a SERIAL writer
// shares fsyncs across many appends — the amortization sync mode only
// reaches with concurrent writers. The acceptance bar is ≥2x over serial
// sync mode (which is exactly 1 append/fsync).
func TestAsyncModeAmortizesFsyncs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncBackground, FsyncEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			// Let a few background fsync ticks fire mid-stream.
			time.Sleep(25 * time.Millisecond)
		}
	}
	l.Close() // final flush
	v := l.Stats().View()
	if v.Appends != n {
		t.Fatalf("appends = %d, want %d", v.Appends, n)
	}
	if perF := v.AppendsPerFsync(); perF < 2 {
		t.Fatalf("async AppendsPerFsync = %.1f (%d fsyncs), want ≥ 2 (serial sync mode is 1.0)", perF, v.Fsyncs)
	}
}

// TestCursorTrackerFrontier exercises the out-of-order ack frontier.
func TestCursorTrackerFrontier(t *testing.T) {
	var tr CursorTracker
	for _, ts := range []uint64{10, 20, 30, 40} {
		tr.Enqueue(ts)
	}
	if high, adv := tr.Ack(20); adv || high != 9 {
		t.Fatalf("ack(20) = (%d, %v), want frontier 9, no advance", high, adv)
	}
	// 10 and 20 acked, 30 outstanding: everything below 30 is covered.
	if high, adv := tr.Ack(10); !adv || high != 29 {
		t.Fatalf("ack(10) = (%d, %v), want frontier 29", high, adv)
	}
	if high, adv := tr.Ack(40); adv || high != 29 {
		t.Fatalf("ack(40) = (%d, %v), want frontier 29", high, adv)
	}
	if high, adv := tr.Ack(30); !adv || high != 40 {
		t.Fatalf("ack(30) = (%d, %v), want frontier 40 (all acked)", high, adv)
	}
	// New traffic after a fully drained window.
	tr.Enqueue(50)
	if high, adv := tr.Ack(50); !adv || high != 50 {
		t.Fatalf("ack(50) = (%d, %v), want 50", high, adv)
	}
}

// TestCursorTrackerKeepsNoUntrackedAcks: a stop-and-wait stream acks
// timestamps it never enqueued. Each ack moves the frontier and none is
// kept, however many arrive; nor is an ack below the oldest outstanding
// timestamp, which no later pop could reach.
func TestCursorTrackerKeepsNoUntrackedAcks(t *testing.T) {
	var tr CursorTracker
	for ts := uint64(1); ts <= 10000; ts++ {
		if high, adv := tr.Ack(ts); !adv || high != ts {
			t.Fatalf("ack(%d) = (%d, %v), want frontier %d", ts, high, adv, ts)
		}
	}
	if n := len(tr.acked); n != 0 {
		t.Fatalf("tracker keeps %d acks after 10000 untracked ones, want 0", n)
	}
	tr.Enqueue(20000)
	if high, adv := tr.Ack(15000); adv || high != 19999 {
		t.Fatalf("ack(15000) under outstanding 20000 = (%d, %v), want frontier 19999, no advance", high, adv)
	}
	if high, adv := tr.Ack(20000); !adv || high != 20000 {
		t.Fatalf("ack(20000) = (%d, %v), want 20000", high, adv)
	}
	if len(tr.acked) != 0 || len(tr.unacked) != 0 {
		t.Fatalf("tracker keeps %d acks and %d outstanding, want none", len(tr.acked), len(tr.unacked))
	}
}
