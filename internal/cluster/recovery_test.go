package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cops"
	"repro/internal/wire"
)

// tearWALTail appends a half-written record to the newest segment of the
// (dc,p) partition's WAL, simulating the torn final write a SIGKILL (or
// power cut) mid-commit leaves behind. Recovery must shrug it off: a torn
// record was never acknowledged.
func tearWALTail(t *testing.T, c *Cluster, dc, p int) {
	t.Helper()
	dir := c.WALDir(dc, p)
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
		t.Fatalf("no WAL segments in %s", dir)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1]), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A record header claiming a 400-byte body, followed by only 9 bytes.
	torn := append([]byte{0x90, 1, 0, 0, 0xde, 0xad, 0xbe, 0xef}, []byte("truncated")...)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestCrashRecoveryDurable is the kill-and-restart fault test for the
// durability subsystem, run against all three protocol families so every
// server logs installs uniformly: write through the protocol, hard-stop
// both partitions (plus a torn final WAL record on partition 0), restart
// them over the same data dir, and require every previously acknowledged
// write to come back with its original value AND timestamp — then require
// the cluster to still be live for new writes.
func TestCrashRecoveryDurable(t *testing.T) {
	for _, proto := range Families() {
		t.Run(proto.String(), func(t *testing.T) {
			c := startCluster(t, Config{
				Protocol:   proto,
				DCs:        1,
				Partitions: 2,
				Latency:    NoLatency(),
				DataDir:    t.TempDir(),
				// Small segments force rotation under the test's write volume
				// so recovery stitches multiple segments.
				WALSegmentBytes: 2048,
			})
			ctx := testCtx(t)
			w, err := c.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			const keys = 40
			acked := map[string]struct {
				val []byte
				ts  uint64
			}{}
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("crash-%02d", i)
				val := []byte(fmt.Sprintf("value-%02d", i))
				ts, err := w.Put(ctx, key, val)
				if err != nil {
					t.Fatal(err)
				}
				acked[key] = struct {
					val []byte
					ts  uint64
				}{val, ts}
			}
			// Overwrite a few keys so recovery must respect version order.
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("crash-%02d", i)
				val := []byte(fmt.Sprintf("rewrite-%02d", i))
				ts, err := w.Put(ctx, key, val)
				if err != nil {
					t.Fatal(err)
				}
				acked[key] = struct {
					val []byte
					ts  uint64
				}{val, ts}
			}

			// COPS: capture the durable dependency lists before the crash.
			wantDeps := map[string][]wire.LoDep{}
			if proto == COPS {
				for key := range acked {
					idx := c.Ring().Owner(key)
					_, _, deps, ok := c.Servers()[idx].(*cops.Server).Latest(key)
					if !ok {
						t.Fatalf("key %s missing before crash", key)
					}
					wantDeps[key] = deps
				}
			}

			// Crash both partitions; partition 0 additionally gets a torn
			// final record, as a real mid-commit kill would leave.
			if err := c.RestartPartition(0, 1); err != nil {
				t.Fatal(err)
			}
			c.stopServer(0)
			tearWALTail(t, c, 0, 0)
			if err := c.RestartPartition(0, 0); err != nil {
				t.Fatal(err)
			}
			if v := c.WALView(); v.RecoveredRecords == 0 || v.TornTails != 1 {
				t.Fatalf("recovery stats: recovered %d records, %d torn tails (want >0, 1)",
					v.RecoveredRecords, v.TornTails)
			}

			// Every acknowledged write must be readable with its original
			// value and timestamp.
			r, err := c.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for key, want := range acked {
				kvs, err := r.ROT(ctx, []string{key})
				if err != nil {
					t.Fatalf("read %s after restart: %v", key, err)
				}
				if !bytes.Equal(kvs[0].Value, want.val) {
					t.Fatalf("key %s after restart: value %q, want %q", key, kvs[0].Value, want.val)
				}
				if kvs[0].TS != want.ts {
					t.Fatalf("key %s after restart: ts %d, want original %d", key, kvs[0].TS, want.ts)
				}
			}
			// COPS dependency lists must survive byte-for-byte.
			for key, want := range wantDeps {
				idx := c.Ring().Owner(key)
				_, _, got, ok := c.Servers()[idx].(*cops.Server).Latest(key)
				if !ok || len(got) != len(want) {
					t.Fatalf("key %s deps after restart: %v, want %v", key, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("key %s dep %d: %+v, want %+v", key, i, got[i], want[i])
					}
				}
			}

			// The cluster must remain live: new writes land above recovered
			// timestamps and are immediately readable.
			for i := 0; i < 5; i++ {
				key := fmt.Sprintf("crash-%02d", i)
				ts, err := w.Put(ctx, key, []byte("post-restart"))
				if err != nil {
					t.Fatalf("put after restart: %v", err)
				}
				if ts <= acked[key].ts {
					t.Fatalf("post-restart ts %d not above recovered %d (clock not recovered)", ts, acked[key].ts)
				}
				got, err := r.Get(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != "post-restart" {
					t.Fatalf("post-restart write invisible: got %q", got)
				}
			}
		})
	}
}

// TestDurableReplicationAcrossDCs checks the durability gate does not
// stall geo-replication: with WALs on, writes still become visible in the
// remote DC (the replication cut waits for each update's fsync), and —
// after a partition restart — fresh writes keep replicating (their batches'
// HighTS stays above the receiver's version vector).
func TestDurableReplicationAcrossDCs(t *testing.T) {
	c := startCluster(t, Config{
		Protocol:   Contrarian,
		DCs:        2,
		Partitions: 2,
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

	waitVisible := func(key string, want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			got, err := r.Get(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if got != nil && seqOf(got) == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %s (seq %d) never visible in remote DC", key, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("geo-%d", i)
		if _, err := w.Put(ctx, key, seqVal(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		waitVisible(key, uint64(i+1))
	}

	// Restart both DC0 partitions; post-restart writes must still cross.
	for p := 0; p < 2; p++ {
		if err := c.RestartPartition(0, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 8; i < 12; i++ {
		key := fmt.Sprintf("geo-%d", i)
		if _, err := w.Put(ctx, key, seqVal(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		waitVisible(key, uint64(i+1))
	}
}

// TestRecoveryWithSnapshot covers the snapshot + tail replay composition at
// the cluster level: snapshot mid-workload (truncating sealed segments),
// keep writing, crash, restart, and check both pre- and post-snapshot
// writes recovered.
func TestRecoveryWithSnapshot(t *testing.T) {
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

	ts := map[string]uint64{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("snap-%02d", i)
		ts[key], err = w.Put(ctx, key, seqVal(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.logs[0].Snapshot(); err != nil {
		t.Fatal(err)
	}
	if v := c.WALView(); v.Snapshots != 1 || v.Truncated == 0 {
		t.Fatalf("snapshot did not truncate: %+v", v)
	}
	for i := 30; i < 45; i++ {
		key := fmt.Sprintf("snap-%02d", i)
		ts[key], err = w.Put(ctx, key, seqVal(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RestartPartition(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 45; i++ {
		key := fmt.Sprintf("snap-%02d", i)
		kvs, err := w.ROT(ctx, []string{key})
		if err != nil {
			t.Fatal(err)
		}
		if seqOf(kvs[0].Value) != uint64(i) || kvs[0].TS != ts[key] {
			t.Fatalf("key %s: got (seq %d, ts %d), want (%d, %d)",
				key, seqOf(kvs[0].Value), kvs[0].TS, i, ts[key])
		}
	}
}
