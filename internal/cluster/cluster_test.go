package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
)

var allProtocols = Families()

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// distinctPartKeys returns two keys owned by different partitions.
func distinctPartKeys(r ring.Ring, tag string) (string, string) {
	x := fmt.Sprintf("x-%s", tag)
	for i := 0; ; i++ {
		y := fmt.Sprintf("y-%s-%d", tag, i)
		if r.Owner(y) != r.Owner(x) {
			return x, y
		}
	}
}

func seqVal(i uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return b[:]
}

func seqOf(b []byte) uint64 {
	if len(b) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func startCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPutGetROTAllProtocols(t *testing.T) {
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, Config{Protocol: p, DCs: 1, Partitions: 4, Latency: NoLatency()})
			ctx := testCtx(t)
			cli, err := c.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			if _, err := cli.Put(ctx, "album", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Put(ctx, "photo", []byte("p1")); err != nil {
				t.Fatal(err)
			}
			got, err := cli.Get(ctx, "album")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "v1" {
				t.Fatalf("Get(album) = %q, want v1 (read-your-writes)", got)
			}
			kvs, err := cli.ROT(ctx, []string{"album", "photo", "missing"})
			if err != nil {
				t.Fatal(err)
			}
			if string(kvs[0].Value) != "v1" || string(kvs[1].Value) != "p1" {
				t.Fatalf("ROT = %q,%q", kvs[0].Value, kvs[1].Value)
			}
			if kvs[2].Value != nil {
				t.Fatalf("missing key returned %q, want nil", kvs[2].Value)
			}
		})
	}
}

func TestOverwriteVisible(t *testing.T) {
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, Config{Protocol: p, DCs: 1, Partitions: 2, Latency: NoLatency()})
			ctx := testCtx(t)
			cli, _ := c.NewClient(0, 0)
			defer cli.Close()
			for i := uint64(1); i <= 10; i++ {
				if _, err := cli.Put(ctx, "k", seqVal(i)); err != nil {
					t.Fatal(err)
				}
				got, err := cli.Get(ctx, "k")
				if err != nil {
					t.Fatal(err)
				}
				if seqOf(got) != i {
					t.Fatalf("after put %d read back %d", i, seqOf(got))
				}
			}
		})
	}
}

// TestCausalSnapshotRandomized is the central correctness test, the
// randomized version of the paper's Figure 1 anomaly. A writer issues the
// causally chained PUT(x, i); PUT(y, i) while readers run ROT{x, y}. A
// causally consistent snapshot may be stale, but it can never hold y = i
// with x < i: the version of y causally depends on version i of x.
func TestCausalSnapshotRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			lat := &transport.LatencyModel{IntraDC: 100 * time.Microsecond, JitterFrac: 1.0}
			c := startCluster(t, Config{Protocol: p, DCs: 1, Partitions: 4, Latency: lat})
			ctx := testCtx(t)
			x, y := distinctPartKeys(c.Ring(), "snap")

			var stop atomic.Bool
			var wg sync.WaitGroup
			errCh := make(chan error, 16)

			wg.Add(1)
			go func() {
				defer wg.Done()
				w, err := c.NewClient(0, 0)
				if err != nil {
					errCh <- err
					return
				}
				defer w.Close()
				for i := uint64(1); !stop.Load(); i++ {
					if _, err := w.Put(ctx, x, seqVal(i)); err != nil {
						errCh <- err
						return
					}
					if _, err := w.Put(ctx, y, seqVal(i)); err != nil {
						errCh <- err
						return
					}
				}
			}()

			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cli, err := c.NewClient(0, 0)
					if err != nil {
						errCh <- err
						return
					}
					defer cli.Close()
					for !stop.Load() {
						kvs, err := cli.ROT(ctx, []string{x, y})
						if err != nil {
							errCh <- err
							return
						}
						xi, yi := seqOf(kvs[0].Value), seqOf(kvs[1].Value)
						if yi > xi {
							errCh <- fmt.Errorf("causal snapshot violation: x=%d y=%d (y depends on x@%d)", xi, yi, yi)
							return
						}
					}
				}()
			}

			time.Sleep(2 * time.Second)
			stop.Store(true)
			wg.Wait()
			close(errCh)
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCausalChainAcrossClients checks transitivity through reads: writer A
// writes x; writer B reads x and then writes y (so y depends on x through
// B's session); readers must never see the new y with the old x.
func TestCausalChainAcrossClients(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			lat := &transport.LatencyModel{IntraDC: 100 * time.Microsecond, JitterFrac: 1.0}
			c := startCluster(t, Config{Protocol: p, DCs: 1, Partitions: 4, Latency: lat})
			ctx := testCtx(t)
			x, y := distinctPartKeys(c.Ring(), "chain")

			var stop atomic.Bool
			var wg sync.WaitGroup
			errCh := make(chan error, 16)

			// Writer A bumps x.
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, err := c.NewClient(0, 0)
				if err != nil {
					errCh <- err
					return
				}
				defer a.Close()
				for i := uint64(1); !stop.Load(); i++ {
					if _, err := a.Put(ctx, x, seqVal(i)); err != nil {
						errCh <- err
						return
					}
				}
			}()

			// Writer B copies x into y; y's value causally depends on the x
			// version it read.
			wg.Add(1)
			go func() {
				defer wg.Done()
				b, err := c.NewClient(0, 0)
				if err != nil {
					errCh <- err
					return
				}
				defer b.Close()
				for !stop.Load() {
					v, err := b.Get(ctx, x)
					if err != nil {
						errCh <- err
						return
					}
					if v == nil {
						continue
					}
					if _, err := b.Put(ctx, y, v); err != nil {
						errCh <- err
						return
					}
				}
			}()

			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cli, err := c.NewClient(0, 0)
					if err != nil {
						errCh <- err
						return
					}
					defer cli.Close()
					for !stop.Load() {
						kvs, err := cli.ROT(ctx, []string{x, y})
						if err != nil {
							errCh <- err
							return
						}
						xi, yi := seqOf(kvs[0].Value), seqOf(kvs[1].Value)
						if yi > xi {
							errCh <- fmt.Errorf("cross-client causality violation: x=%d y=%d", xi, yi)
							return
						}
					}
				}()
			}

			time.Sleep(2 * time.Second)
			stop.Store(true)
			wg.Wait()
			close(errCh)
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEventualVisibilityTwoDCs(t *testing.T) {
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, Config{Protocol: p, DCs: 2, Partitions: 4, Latency: NoLatency()})
			ctx := testCtx(t)
			w, _ := c.NewClient(0, 0)
			defer w.Close()
			r, _ := c.NewClient(1, 0)
			defer r.Close()

			if _, err := w.Put(ctx, "geo", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				got, err := r.Get(ctx, "geo")
				if err != nil {
					t.Fatal(err)
				}
				if string(got) == "hello" {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatal("value never became visible in remote DC")
		})
	}
}

// TestCausalSnapshotTwoDCs runs the chained-writer checker with the writer
// and readers in different DCs: remote readers may see stale data but never
// an inconsistent snapshot. Five raced clusters on two cores stall the GSS
// long enough for the writer to run far past it; the store then refuses a
// snapshot it trimmed instead of approximating it, and any violation fails.
func TestCausalSnapshotTwoDCs(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			lat := &transport.LatencyModel{IntraDC: 100 * time.Microsecond, InterDC: time.Millisecond, JitterFrac: 1.0}
			c := startCluster(t, Config{Protocol: p, DCs: 2, Partitions: 4, Latency: lat})
			ctx := testCtx(t)
			x, y := distinctPartKeys(c.Ring(), "geo-snap")

			var stop atomic.Bool
			var wg sync.WaitGroup
			errCh := make(chan error, 8)
			violations := make(chan string, 2) // at most one per reader

			wg.Add(1)
			go func() {
				defer wg.Done()
				w, err := c.NewClient(0, 0)
				if err != nil {
					errCh <- err
					return
				}
				defer w.Close()
				for i := uint64(1); !stop.Load(); i++ {
					if _, err := w.Put(ctx, x, seqVal(i)); err != nil {
						errCh <- err
						return
					}
					if _, err := w.Put(ctx, y, seqVal(i)); err != nil {
						errCh <- err
						return
					}
				}
			}()

			for dc := 0; dc < 2; dc++ {
				wg.Add(1)
				go func(dc int) {
					defer wg.Done()
					cli, err := c.NewClient(dc, 0)
					if err != nil {
						errCh <- err
						return
					}
					defer cli.Close()
					for !stop.Load() {
						kvs, err := cli.ROT(ctx, []string{x, y})
						if err != nil {
							errCh <- err
							return
						}
						xi, yi := seqOf(kvs[0].Value), seqOf(kvs[1].Value)
						if yi > xi {
							violations <- fmt.Sprintf("dc%d snapshot violation: x=%d y=%d", dc, xi, yi)
							return
						}
					}
				}(dc)
			}

			time.Sleep(2 * time.Second)
			stop.Store(true)
			wg.Wait()
			close(errCh)
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			close(violations)
			for v := range violations {
				t.Error(v)
			}
		})
	}
}

// TestConvergenceTwoDCs checks last-writer-wins convergence: after
// concurrent writes in both DCs quiesce, all replicas agree on every key.
func TestConvergenceTwoDCs(t *testing.T) {
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, Config{Protocol: p, DCs: 2, Partitions: 2, Latency: NoLatency()})
			ctx := testCtx(t)

			var wg sync.WaitGroup
			for dc := 0; dc < 2; dc++ {
				wg.Add(1)
				go func(dc int) {
					defer wg.Done()
					cli, _ := c.NewClient(dc, 0)
					defer cli.Close()
					for i := 0; i < 50; i++ {
						key := fmt.Sprintf("conv-%d", i%10)
						cli.Put(ctx, key, []byte(fmt.Sprintf("dc%d-%d", dc, i)))
					}
				}(dc)
			}
			wg.Wait()
			time.Sleep(500 * time.Millisecond) // replication + stabilization quiesce

			latest := make(map[string]map[string]string) // key -> server -> "ts/dc/value"
			record := func(server, key string, ts uint64, srcDC uint8, val []byte) {
				if latest[key] == nil {
					latest[key] = make(map[string]string)
				}
				latest[key][server] = fmt.Sprintf("%d/%d/%s", ts, srcDC, val)
			}
			for i, s := range c.Servers() {
				name := fmt.Sprintf("s%d", i)
				s.ForEachLatest(func(k string, v []byte, ts uint64, srcDC uint8) {
					record(name, k, ts, srcDC, v)
				})
			}
			for key, per := range latest {
				var want string
				for _, v := range per {
					if want == "" {
						want = v
					} else if v != want {
						t.Fatalf("key %q diverged: %v", key, per)
					}
				}
				if len(per) != 2 {
					t.Fatalf("key %q present on %d replicas, want 2", key, len(per))
				}
			}
		})
	}
}

// TestCureBlocksOnSkew verifies the qualitative Figure 4 effect: under
// clock skew, Cure's ROT latency has a floor near the skew, while
// Contrarian's HLC-based ROTs do not block.
func TestCureBlocksOnSkew(t *testing.T) {
	measure := func(p Protocol) time.Duration {
		c := startCluster(t, Config{
			Protocol: p, DCs: 1, Partitions: 4,
			Latency: NoLatency(), MaxSkew: 5 * time.Millisecond, Seed: 42,
		})
		ctx := testCtx(t)
		cli, _ := c.NewClient(0, 0)
		defer cli.Close()
		x, y := distinctPartKeys(c.Ring(), "skew")
		cli.Put(ctx, x, []byte("a"))
		cli.Put(ctx, y, []byte("b"))
		start := time.Now()
		const n = 30
		for i := 0; i < n; i++ {
			if _, err := cli.ROT(ctx, []string{x, y}); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / n
	}
	cure := measure(Cure)
	contrarian := measure(Contrarian)
	t.Logf("avg ROT latency: cure=%v contrarian=%v", cure, contrarian)
	if cure < 2*contrarian || cure < 500*time.Microsecond {
		t.Fatalf("expected Cure to block on skew: cure=%v contrarian=%v", cure, contrarian)
	}
}

// TestContrarianModesEquivalent runs the same workload under 1 1/2- and
// 2-round modes and checks both return consistent, fresh results.
func TestContrarianModesEquivalent(t *testing.T) {
	for _, p := range []Protocol{Contrarian, ContrarianTwoRound} {
		t.Run(p.String(), func(t *testing.T) {
			c := startCluster(t, Config{Protocol: p, DCs: 1, Partitions: 4, Latency: NoLatency()})
			ctx := testCtx(t)
			cli, _ := c.NewClient(0, 0)
			defer cli.Close()
			keys := make([]string, 6)
			for i := range keys {
				keys[i] = fmt.Sprintf("mode-%d", i)
				if _, err := cli.Put(ctx, keys[i], seqVal(uint64(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			kvs, err := cli.ROT(ctx, keys)
			if err != nil {
				t.Fatal(err)
			}
			for i, kv := range kvs {
				if seqOf(kv.Value) != uint64(i+1) {
					t.Fatalf("key %s = %d, want %d", kv.Key, seqOf(kv.Value), i+1)
				}
			}
		})
	}
}

func TestManyClientsSmoke(t *testing.T) {
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, Config{Protocol: p, DCs: 1, Partitions: 4, Latency: NoLatency()})
			ctx := testCtx(t)
			var wg sync.WaitGroup
			errs := make(chan error, 32)
			for w := 0; w < 16; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cli, err := c.NewClient(0, 0)
					if err != nil {
						errs <- err
						return
					}
					defer cli.Close()
					for i := 0; i < 30; i++ {
						k := fmt.Sprintf("smoke-%d", (w*31+i)%64)
						if i%5 == 0 {
							if _, err := cli.Put(ctx, k, seqVal(uint64(i))); err != nil {
								errs <- err
								return
							}
						} else {
							if _, err := cli.ROT(ctx, []string{k, fmt.Sprintf("smoke-%d", (i+1)%64)}); err != nil {
								errs <- err
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStartFailureDoesNotHang: when a later partition fails to come up,
// TestPartitionIndexBounds: a (dc, p) outside the topology names no
// partition. With two DCs, (0, Partitions) is one past DC 0's last
// partition, not an alias of DC 1's partition 0.
func TestPartitionIndexBounds(t *testing.T) {
	c := startCluster(t, Config{DCs: 2, Partitions: 2, DataDir: t.TempDir(), Latency: NoLatency()})
	if c.WALCursors(1, 0) == nil {
		t.Fatal("WALCursors(1, 0) = nil on a durable cluster")
	}
	for _, at := range [][2]int{{0, 2}, {1, 2}, {2, 0}, {-1, 0}, {0, -1}} {
		dc, p := at[0], at[1]
		if v := c.WALViewOf(dc, p); v != (wal.StatsView{}) {
			t.Errorf("WALViewOf(%d, %d) = %+v, want the zero view", dc, p, v)
		}
		if cur := c.WALCursors(dc, p); cur != nil {
			t.Errorf("WALCursors(%d, %d) = %v, want nil", dc, p, cur)
		}
		if err := c.RestartPartition(dc, p); err == nil {
			t.Errorf("RestartPartition(%d, %d) succeeded", dc, p)
		}
		if err := c.CrashPartition(dc, p); err == nil {
			t.Errorf("CrashPartition(%d, %d) succeeded", dc, p)
		}
	}
}

// Start closes the servers it already built — none of them Start()ed yet —
// and returns the error. A regular file where dc0-p1's WAL directory should
// be is such a failure; with two DCs the built servers own replication
// streams, whose stop used to wait for run loops that never ran.
func TestStartFailureDoesNotHang(t *testing.T) {
	for _, proto := range Families() {
		t.Run(proto.String(), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "dc0-p1"), []byte("not a directory"), 0o644); err != nil {
				t.Fatal(err)
			}
			errCh := make(chan error, 1)
			go func() {
				c, err := Start(Config{Protocol: proto, DCs: 2, Partitions: 2, DataDir: dir, Latency: NoLatency()})
				if err == nil {
					c.Close()
				}
				errCh <- err
			}()
			select {
			case err := <-errCh:
				if err == nil {
					t.Fatal("Start succeeded over a regular file at dc0-p1")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Start hung on its own error path")
			}
		})
	}
}
