package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/transport"
)

// TestReplicationSurvivesWANLoss injects 30% cross-DC message loss and
// checks that acked, retried replication still delivers every write: a
// DC0 write becomes visible in DC1 despite the drops.
func TestReplicationSurvivesWANLoss(t *testing.T) {
	for _, p := range []Protocol{Contrarian, CCLO} {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			lat := &transport.LatencyModel{
				IntraDC:     50 * time.Microsecond,
				InterDC:     200 * time.Microsecond,
				InterDCLoss: 0.3,
			}
			c := startCluster(t, Config{Protocol: p, DCs: 2, Partitions: 2, Latency: lat})
			ctx := testCtx(t)
			w, _ := c.NewClient(0, 0)
			defer w.Close()
			r, _ := c.NewClient(1, 0)
			defer r.Close()

			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("lossy-%d", i)
				if _, err := w.Put(ctx, key, seqVal(uint64(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(20 * time.Second)
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("lossy-%d", i)
				for {
					got, err := r.Get(ctx, key)
					if err != nil {
						t.Fatal(err)
					}
					if seqOf(got) == uint64(i+1) {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("key %s never visible under 30%% WAN loss", key)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			if _, _, dropped := c.Net().Stats().Snapshot(); dropped == 0 {
				t.Fatal("loss injection did not drop anything; test is vacuous")
			}
		})
	}
}

// TestPutsAnswerBehindSeveredWAN: a put is durable and visible in its own DC
// before it is shipped, and causal consistency stays available under
// partition, so no family may hold a put's answer on the WAN. With every
// inter-DC message dropped, more puts than any replication window and
// buffer hold must all answer; once the WAN heals, every key's last value
// reaches the other DC.
func TestPutsAnswerBehindSeveredWAN(t *testing.T) {
	const puts, keys = 8400, 16
	for _, p := range Families() {
		t.Run(p.String(), func(t *testing.T) {
			c := startCluster(t, Config{Protocol: p, DCs: 2, Partitions: 1, Latency: NoLatency()})
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
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

			c.SetInterDCLoss(1.0)
			for i := 1; i <= puts; i++ {
				pctx, pcancel := context.WithTimeout(ctx, 3*time.Second)
				_, err := w.Put(pctx, fmt.Sprintf("severed-%d", i%keys), seqVal(uint64(i)))
				pcancel()
				if err != nil {
					t.Fatalf("put #%d behind a severed WAN: %v", i, err)
				}
			}
			c.SetInterDCLoss(0)
			for k := range keys {
				last := puts - (puts-k)%keys // the last i with i%keys == k
				waitRemote(t, r, ctx, fmt.Sprintf("severed-%d", k), seqVal(uint64(last)))
			}
		})
	}
}

// TestCCLOSessionGuaranteesAcrossCrashes drives CC-LO sessions through
// repeated kill -9 + restart cycles of both partitions and holds every
// recorded operation to the checker's session guarantees: observed writes
// must never rewind for a session once acknowledged, across however many
// recoveries happen in between. The long ReaderGCWindow keeps the
// persisted old-reader records live across each restart (the knob this PR
// adds for exactly this kind of deterministic crash test).
func TestCCLOSessionGuaranteesAcrossCrashes(t *testing.T) {
	c := startCluster(t, Config{
		Protocol:       CCLO,
		DCs:            2,
		Partitions:     2,
		Latency:        NoLatency(),
		DataDir:        t.TempDir(),
		ReaderGCWindow: 30 * time.Second,
	})
	h := check.New()
	kx, ky := "fx", ""
	for i := 0; ; i++ {
		ky = fmt.Sprintf("fy%d", i)
		if c.Ring().Owner(ky) != c.Ring().Owner(kx) {
			break
		}
	}
	w, err := c.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := c.NewClient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wrec, rrec := h.Client("writer"), h.Client("reader")

	op := func(ctx context.Context, round int) {
		xv := fmt.Sprintf("x-%d", round)
		yv := fmt.Sprintf("y-%d", round)
		if ts, err := w.Put(ctx, kx, []byte(xv)); err == nil {
			wrec.Put(kx, xv, ts)
		}
		if ts, err := w.Put(ctx, ky, []byte(yv)); err == nil {
			wrec.Put(ky, yv, ts)
		}
		if kvs, err := r.ROT(ctx, []string{kx, ky}); err == nil {
			reads := make([]check.Read, len(kvs))
			for i, kv := range kvs {
				reads[i] = check.Read{Key: kv.Key, Val: string(kv.Value), TS: kv.TS}
			}
			rrec.ReadTx(reads)
		}
	}
	ctx := testCtx(t)
	for round := 1; round <= 12; round++ {
		op(ctx, round)
		if round%4 == 0 {
			// Alternate which partition dies; both reads and the readers
			// checks between kx and ky cross the crashed node.
			p := (round / 4) % 2
			if err := c.CrashPartition(0, p); err != nil {
				t.Fatal(err)
			}
			if err := c.RestartPartition(0, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.Err(); err != nil {
		for _, v := range h.Violations() {
			t.Error(v)
		}
		t.FailNow()
	}
	if puts, reads := h.Ops(); puts == 0 || reads == 0 {
		t.Fatalf("vacuous run: %d puts, %d reads", puts, reads)
	}
}

// TestLogicalClockLaggardPinsGSS demonstrates the §4 "Freshness of the
// snapshots" problem that motivates HLCs: with plain logical clocks, a
// partition that receives no PUTs never advances its clock, its VV entry
// pins the remote GSS, and a DC0 write stays invisible in DC1 until every
// partition has moved — HLCs avoid this because idle clocks advance with
// physical time.
func TestLogicalClockLaggardPinsGSS(t *testing.T) {
	logical := core.ClockLogical
	c := startCluster(t, Config{
		Protocol:      Contrarian,
		DCs:           2,
		Partitions:    4,
		Latency:       NoLatency(),
		ClockOverride: &logical,
	})
	ctx := testCtx(t)
	w, _ := c.NewClient(0, 0)
	defer w.Close()
	r, _ := c.NewClient(1, 0)
	defer r.Close()

	if _, err := w.Put(ctx, "pinned", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Idle laggard partitions pin the GSS: the write must NOT become
	// visible remotely while the other partitions' logical clocks are
	// stuck at zero.
	time.Sleep(300 * time.Millisecond)
	if got, err := r.Get(ctx, "pinned"); err != nil {
		t.Fatal(err)
	} else if got != nil {
		t.Fatalf("write visible remotely despite pinned GSS (got %q); laggard model broken", got)
	}

	// Touching every partition advances every logical clock past the
	// marker's timestamp, unpinning the GSS.
	for round := 0; round < 8; round++ {
		for i := 0; i < 64; i++ {
			if _, err := w.Put(ctx, fmt.Sprintf("unpin-%d", i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := r.Get(ctx, "pinned")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) == "v" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("write never became visible after unpinning all partitions")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHLCAvoidsLaggardPinning is the counterpart: same scenario on HLCs,
// where idle partitions' clocks advance with physical time and the write
// becomes visible promptly with no background traffic at all.
func TestHLCAvoidsLaggardPinning(t *testing.T) {
	c := startCluster(t, Config{Protocol: Contrarian, DCs: 2, Partitions: 4, Latency: NoLatency()})
	ctx := testCtx(t)
	w, _ := c.NewClient(0, 0)
	defer w.Close()
	r, _ := c.NewClient(1, 0)
	defer r.Close()
	if _, err := w.Put(ctx, "fresh", []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := r.Get(ctx, "fresh")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) == "v" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("HLC visibility took more than 5s with idle partitions")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
