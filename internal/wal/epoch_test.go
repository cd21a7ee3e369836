package wal

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestEpochPersistAndRecover: SetEpoch survives restart, survives snapshot
// truncation, and Epoch() reflects the newest record.
func TestEpochPersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if got := l.Epoch(); got != 0 {
		t.Fatalf("fresh log epoch = %d, want 0", got)
	}
	if err := l.SetEpoch(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	replayAll(t, l2)
	if got := l2.Epoch(); got != 1 {
		t.Fatalf("recovered epoch = %d, want 1", got)
	}
	// Bump again (the recovery contract: epoch+1), then snapshot: the
	// epoch's segment is truncated, so the snapshot must carry it.
	if err := l2.SetEpoch(2); err != nil {
		t.Fatal(err)
	}
	l2.SetSnapshotSource(func(emit func(Record) error) error { return emit(rec(0)) })
	if err := l2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	l3 := mustOpen(t, Options{Dir: dir})
	replayAll(t, l3)
	if got := l3.Epoch(); got != 2 {
		t.Fatalf("epoch after snapshot truncation = %d, want 2", got)
	}
}

// TestReaderRecordRoundtrip: RecReaders records replay with their version
// identity and entries intact, and the ReaderRecords counter tracks them
// separately from installs.
func TestReaderRecordRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	rr := Record{
		Kind: RecReaders, Key: "marked", TS: 42, SrcDC: 1,
		Readers: []wire.ReaderEntry{{RotID: 7, T: 3}, {RotID: 1 << 40, T: 88}},
	}
	if err := l.Append(rr, rec(1)); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().View(); got.ReaderRecords != 1 || got.Appends != 2 {
		t.Fatalf("stats = %d reader records / %d appends, want 1/2", got.ReaderRecords, got.Appends)
	}
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir})
	recs := replayAll(t, l2)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	got := recs[0]
	if got.Kind != RecReaders || got.Key != "marked" || got.TS != 42 || got.SrcDC != 1 {
		t.Fatalf("reader record corrupted: %+v", got)
	}
	if len(got.Readers) != 2 || got.Readers[0] != rr.Readers[0] || got.Readers[1] != rr.Readers[1] {
		t.Fatalf("reader entries corrupted: %+v", got.Readers)
	}
}

// TestOldFormatMagicRejected: a segment carrying the magic of a format this
// build no longer reads (03 with stream sequences, 02, or 01 from before
// the Kind byte) fails replay with "bad magic" instead of being misparsed.
func TestOldFormatMagicRejected(t *testing.T) {
	for _, magic := range []string{"CKVWAL01", "CKVWAL02", "CKVWAL03"} {
		t.Run(magic, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, Options{Dir: dir})
			if err := l.Append(rec(0)); err != nil {
				t.Fatal(err)
			}
			path := l.activePath
			l.Close()
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte(magic), 0); err != nil {
				t.Fatal(err)
			}
			f.Close()
			l2 := mustOpen(t, Options{Dir: dir})
			err = l2.Replay(func(Record) error { return nil })
			if err == nil || !strings.Contains(err.Error(), "bad magic") {
				t.Fatalf("replay of a %s segment: %v, want a bad magic error", magic, err)
			}
		})
	}
}

// TestEpochSurvivesSecondCrash pins SetEpoch's fsync-before-serve
// contract under background sync: an epoch bump followed immediately by a
// power cut must still be there, or two incarnations would share an epoch
// and the ROT fence would miss the restart between them.
func TestEpochSurvivesSecondCrash(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Sync: SyncBackground, FsyncEvery: time.Hour})
	if err := l.SetEpoch(5); err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(); err != nil { // power cut right after the bump
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir, Sync: SyncBackground})
	replayAll(t, l2)
	if got := l2.Epoch(); got != 5 {
		t.Fatalf("epoch after crash-on-bump = %d, want 5: SetEpoch acked before its fsync", got)
	}
}
