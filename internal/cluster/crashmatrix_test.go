package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// walSegments lists the (dc,p) partition's WAL segment file names, oldest
// first, and the newest one's sequence number.
func walSegments(t *testing.T, c *Cluster, dc, p int) (segs []string, newestSeq uint64) {
	t.Helper()
	entries, err := os.ReadDir(c.WALDir(dc, p))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatalf("no WAL segments in %s", c.WALDir(dc, p))
	}
	sort.Strings(segs)
	if _, err := fmt.Sscanf(segs[len(segs)-1], "seg-%d.wal", &newestSeq); err != nil {
		t.Fatal(err)
	}
	return segs, newestSeq
}

// waitRemote polls until key is visible in dc with value want.
func waitRemote(t *testing.T, cli Client, ctx context.Context, key string, want []byte) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, err := cli.Get(ctx, key)
		if err == nil && bytes.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %s never visible remotely (last=%q err=%v)", key, got, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashMatrixPostFsyncPreReplicate is the stage the wall-clock sequence
// hack could never handle exactly-once: the WAN is severed so acknowledged
// writes pile up durable-but-unreplicated, the origin is hard-killed and
// restarted, and the recovered tail must reach the remote DC — exactly
// once, asserted by the remote WAL's append counter (installs are
// idempotent, so the store alone cannot distinguish one delivery from
// five).
func TestCrashMatrixPostFsyncPreReplicate(t *testing.T) {
	for _, proto := range Families() {
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, Config{
				Protocol:   proto,
				DCs:        2,
				Partitions: 1,
				Latency:    NoLatency(),
				DataDir:    t.TempDir(),
			})
			ctx := testCtx(t)
			w, err := c.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			// Sever the WAN: puts are acked and fsynced locally, replication
			// retries into the void.
			c.SetInterDCLoss(1.0)
			const keys = 12
			for i := 0; i < keys; i++ {
				if _, err := w.Put(ctx, fmt.Sprintf("tail-%02d", i), []byte(fmt.Sprintf("v-%02d", i))); err != nil {
					t.Fatal(err)
				}
			}
			installAppends := func(dc, p int) uint64 {
				// Old-reader records (the polling reader below is recorded as
				// a negative reader, so CC-LO installs persist marks for it)
				// ride the same log; exactly-once is about INSTALL records.
				v := c.WALViewOf(dc, p)
				return v.Appends - v.ReaderRecords
			}
			remoteBefore := installAppends(1, 0)

			// Kill -9 the origin between local fsync and remote delivery.
			if err := c.CrashPartition(0, 0); err != nil {
				t.Fatal(err)
			}
			if err := c.RestartPartition(0, 0); err != nil {
				t.Fatal(err)
			}
			c.SetInterDCLoss(0)

			r, err := c.NewClient(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for i := 0; i < keys; i++ {
				waitRemote(t, r, ctx, fmt.Sprintf("tail-%02d", i), []byte(fmt.Sprintf("v-%02d", i)))
			}
			// Exactly once: the remote WAL gained one install record per key
			// and nothing else (no local writes happened in DC1; heartbeats
			// append nothing; duplicate deliveries would append again).
			if delta := installAppends(1, 0) - remoteBefore; delta != keys {
				t.Fatalf("remote WAL appends delta = %d, want exactly %d (dedup after recovery)", delta, keys)
			}
			// And the origin's own state survived intact.
			for i := 0; i < keys; i++ {
				got, err := w.Get(ctx, fmt.Sprintf("tail-%02d", i))
				if err != nil || !bytes.Equal(got, []byte(fmt.Sprintf("v-%02d", i))) {
					t.Fatalf("origin lost tail-%02d: %q %v", i, got, err)
				}
			}
		})
	}
}

// TestCrashMatrixPreFsyncAsync covers the pre-fsync kill under the
// background-sync mode: writes acknowledged inside the loss window may
// vanish, but (a) writes fsynced before the window always survive, and
// (b) the DCs never diverge — a write lost at the origin was gated out of
// replication, so it is lost everywhere.
func TestCrashMatrixPreFsyncAsync(t *testing.T) {
	c := startCluster(t, Config{
		Protocol:      Contrarian,
		DCs:           2,
		Partitions:    1,
		Latency:       NoLatency(),
		DataDir:       t.TempDir(),
		WALSync:       wal.SyncBackground,
		WALFsyncEvery: 40 * time.Millisecond,
	})
	ctx := testCtx(t)
	w, err := c.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// First half, then wait out well over one fsync window so it is durable.
	for i := 0; i < 6; i++ {
		if _, err := w.Put(ctx, fmt.Sprintf("pref-%d", i), []byte("early")); err != nil {
			t.Fatal(err)
		}
	}
	fsyncs := func() uint64 { return c.WALViewOf(0, 0).Fsyncs }
	base := fsyncs()
	deadline := time.Now().Add(5 * time.Second)
	for fsyncs() == base {
		if time.Now().After(deadline) {
			t.Fatal("background fsync never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Second half: acked inside the (fresh) window, then kill -9 at once.
	for i := 6; i < 12; i++ {
		if _, err := w.Put(ctx, fmt.Sprintf("pref-%d", i), []byte("window")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CrashPartition(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartPartition(0, 0); err != nil {
		t.Fatal(err)
	}

	r, err := c.NewClient(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// (a) Pre-window writes survive and replicate.
	for i := 0; i < 6; i++ {
		waitRemote(t, r, ctx, fmt.Sprintf("pref-%d", i), []byte("early"))
	}
	// (b) No divergence: whatever each window write's fate, origin and
	// remote must agree on it once replication quiesces.
	time.Sleep(300 * time.Millisecond)
	lost := 0
	for i := 6; i < 12; i++ {
		key := fmt.Sprintf("pref-%d", i)
		deadline := time.Now().Add(10 * time.Second)
		for {
			lv, err := w.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			rv, err := r.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(lv, rv) {
				if lv == nil {
					lost++
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("window key %s diverged: origin=%q remote=%q", key, lv, rv)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Logf("loss window dropped %d of 6 acked-in-window writes (contract: any number, consistently)", lost)
}

// TestCrashMatrixMidSnapshot: a crash can leave a half-written snapshot
// temp file next to a torn segment tail; recovery must discard the temp,
// tolerate the tear, and replay everything acknowledged.
func TestCrashMatrixMidSnapshot(t *testing.T) {
	c := startCluster(t, Config{
		Protocol:        Contrarian,
		DCs:             1,
		Partitions:      1,
		Latency:         NoLatency(),
		DataDir:         t.TempDir(),
		WALSegmentBytes: 1024,
	})
	ctx := testCtx(t)
	w, err := c.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 30; i++ {
		if _, err := w.Put(ctx, fmt.Sprintf("snapc-%02d", i), seqVal(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CrashPartition(0, 0); err != nil {
		t.Fatal(err)
	}
	// Manufacture the mid-snapshot debris: an abandoned snapshot temp file
	// plus a torn record at the newest segment's tail.
	dir := c.WALDir(0, 0)
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000099.snap.tmp"),
		[]byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	tearWALTail(t, c, 0, 0)
	if err := c.RestartPartition(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		got, err := w.Get(ctx, fmt.Sprintf("snapc-%02d", i))
		if err != nil || seqOf(got) != uint64(i) {
			t.Fatalf("snapc-%02d after mid-snapshot crash: %q %v", i, got, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "snap-0000000000000099.snap.tmp")); !os.IsNotExist(err) {
		t.Fatal("abandoned snapshot temp file not cleaned up")
	}
}

// TestCrashMatrixMidRotateTornHeader: a kill -9 during segment rotation —
// after the new segment file was created but before its header's fsync —
// leaves a next-sequence segment with a short or garbled header. The header
// is synced before any record can land in a segment, so the debris provably
// holds nothing acknowledged; recovery must discard it and replay every
// acknowledged write, for all three protocol families.
func TestCrashMatrixMidRotateTornHeader(t *testing.T) {
	for _, proto := range Families() {
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, Config{
				Protocol:        proto,
				DCs:             1,
				Partitions:      1,
				Latency:         NoLatency(),
				DataDir:         t.TempDir(),
				WALSegmentBytes: 1024, // force real rotations before the crash
			})
			ctx := testCtx(t)
			w, err := c.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			const keys = 30
			for i := 0; i < keys; i++ {
				if _, err := w.Put(ctx, fmt.Sprintf("rot-%02d", i), seqVal(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.CrashPartition(0, 0); err != nil {
				t.Fatal(err)
			}
			// Manufacture the mid-rotate debris: the next segment in sequence,
			// its header torn three bytes in.
			_, seq := walSegments(t, c, 0, 0)
			torn := filepath.Join(c.WALDir(0, 0), fmt.Sprintf("seg-%016d.wal", seq+1))
			if err := os.WriteFile(torn, []byte{0x43, 0x4b, 0x56}, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c.RestartPartition(0, 0); err != nil {
				t.Fatalf("recovery refused mid-rotate debris: %v", err)
			}
			for i := 0; i < keys; i++ {
				got, err := w.Get(ctx, fmt.Sprintf("rot-%02d", i))
				if err != nil || seqOf(got) != uint64(i) {
					t.Fatalf("rot-%02d after mid-rotate crash: %q %v", i, got, err)
				}
			}
			if v := c.WALViewOf(0, 0); v.TornSegments != 1 {
				t.Fatalf("TornSegments = %d, want 1", v.TornSegments)
			}
			// Still live: the reopened log accepts and recovers new writes.
			if _, err := w.Put(ctx, "rot-after", seqVal(99)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashMatrixTornSealedSegmentFailsLoudly is the other half of the
// mid-rotate contract: a torn record at the END of a SEALED (non-final)
// segment means acknowledged records once followed it — rotation seals a
// segment only after its last record's fsync — so data is gone and recovery
// must refuse to start, not silently skip the damage.
func TestCrashMatrixTornSealedSegmentFailsLoudly(t *testing.T) {
	c := startCluster(t, Config{
		Protocol:        Contrarian,
		DCs:             1,
		Partitions:      1,
		Latency:         NoLatency(),
		DataDir:         t.TempDir(),
		WALSegmentBytes: 1024,
	})
	ctx := testCtx(t)
	w, err := c.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 30; i++ {
		if _, err := w.Put(ctx, fmt.Sprintf("seal-%02d", i), seqVal(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CrashPartition(0, 0); err != nil {
		t.Fatal(err)
	}
	segs, _ := walSegments(t, c, 0, 0)
	if len(segs) < 2 {
		t.Fatalf("need a sealed segment; rotation produced only %d", len(segs))
	}
	// A torn record at the seal of the FIRST (oldest) segment: records in
	// later segments durably followed it.
	f, err := os.OpenFile(filepath.Join(c.WALDir(0, 0), segs[0]), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x90, 1, 0, 0, 0xde, 0xad, 0xbe, 0xef, 't', 'o', 'r', 'n'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := c.RestartPartition(0, 0); err == nil {
		t.Fatal("recovery silently skipped a torn record inside a sealed segment: acknowledged writes were lost without a report")
	}
}

// TestCrashMatrixTornCursorRecord: tearing the WAL tail right after cursor
// records were persisted makes recovery fall back to an older (or the torn
// write's predecessor) cursor; the sender must re-ship an acknowledged
// suffix that the receiver detects — liveness and exactly-once visible
// state, never duplicates in the store.
func TestCrashMatrixTornCursorRecord(t *testing.T) {
	c := startCluster(t, Config{
		Protocol:   Contrarian,
		DCs:        2,
		Partitions: 1,
		Latency:    NoLatency(),
		DataDir:    t.TempDir(),
	})
	ctx := testCtx(t)
	w, err := c.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := c.NewClient(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 8; i++ {
		if _, err := w.Put(ctx, fmt.Sprintf("torn-%d", i), seqVal(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		waitRemote(t, r, ctx, fmt.Sprintf("torn-%d", i), seqVal(uint64(i+1)))
	}
	// Wait for a cursor to be persisted at the origin.
	deadline := time.Now().Add(5 * time.Second)
	for len(c.WALCursors(0, 0)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("origin never persisted a replication cursor")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := c.CrashPartition(0, 0); err != nil {
		t.Fatal(err)
	}
	tearWALTail(t, c, 0, 0) // the torn record may sit right on a cursor
	if err := c.RestartPartition(0, 0); err != nil {
		t.Fatal(err)
	}

	// Liveness: new writes still cross, re-shipped suffixes are dropped by
	// the receiver (its VV covers them), and the stores agree per key.
	for i := 8; i < 12; i++ {
		if _, err := w.Put(ctx, fmt.Sprintf("torn-%d", i), seqVal(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		waitRemote(t, r, ctx, fmt.Sprintf("torn-%d", i), seqVal(uint64(i+1)))
	}
	for i := 0; i < 12; i++ {
		got, err := r.Get(ctx, fmt.Sprintf("torn-%d", i))
		if err != nil || seqOf(got) != uint64(i+1) {
			t.Fatalf("torn-%d after torn-cursor recovery: %q %v", i, got, err)
		}
	}
}
