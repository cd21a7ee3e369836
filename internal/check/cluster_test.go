package check_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/cops"
	"repro/internal/wire"
)

// TestRandomizedCausalityAllFamilies is the checker run as a randomized
// property test against every protocol family on the Local transport, with
// durable WALs and a mid-workload crash + restart of a partition: sessions
// in both DCs issue random unique-valued puts and multi-key ROTs, every
// result is fed to the causal-consistency checker, and at the end the DCs
// must converge key by key. Operations that error during the crash window
// are indeterminate and simply not recorded — the checker is built for
// that — but anything that WAS acknowledged stays subject to the session
// guarantees across the restart, which is exactly where a
// durability↔replication gap would surface.
func TestRandomizedCausalityAllFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	for _, proto := range cluster.Families() {
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			c, err := cluster.Start(cluster.Config{
				Protocol:        proto,
				DCs:             2,
				Partitions:      2,
				Latency:         cluster.NoLatency(),
				DataDir:         t.TempDir(),
				WALSegmentBytes: 4096, // force rotation so recovery stitches segments
				// Deep chains: the workload rewrites few keys, and a trimmed
				// chain degrades dependency checks to timestamp heuristics.
				MaxVersions: 256,
				Seed:        1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			keys := make([]string, 8)
			for i := range keys {
				keys[i] = fmt.Sprintf("rk%d", i)
			}
			// The keyspace is deliberately NOT seeded: clients race to
			// write and probe cold keys, so the workload exercises the
			// first-version startup case — negative reads recorded as old
			// readers, first versions hidden from ROTs that probed before
			// them — including across the mid-workload crash, where CC-LO's
			// persisted old-reader records and restart-epoch fence are what
			// keep the guarantees. The seeding that used to sit here was the
			// workaround for exactly that hole.
			h := check.New()
			const clientsPerDC = 3
			const opsPerClient = 150

			var wg sync.WaitGroup
			fail := make(chan error, clientsPerDC*2+1)
			for dc := 0; dc < 2; dc++ {
				for ci := 0; ci < clientsPerDC; ci++ {
					wg.Add(1)
					go func(dc, ci int) {
						defer wg.Done()
						name := fmt.Sprintf("dc%d-c%d", dc, ci)
						// Every client is a session on the DC's shared
						// endpoint, spread over two tenants, so the checker
						// runs the session mux/demux under the causal
						// workload.
						cli, err := c.NewClient(dc, uint16(ci%2))
						if err != nil {
							fail <- err
							return
						}
						defer cli.Close()
						rec := h.Client(name)
						rng := rand.New(rand.NewSource(int64(dc*100 + ci)))
						seq := 0
						for op := 0; op < opsPerClient; op++ {
							ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
							if rng.Intn(100) < 35 {
								key := keys[rng.Intn(len(keys))]
								seq++
								val := fmt.Sprintf("%s-%d", name, seq)
								ts, err := cli.Put(ctx, key, []byte(val))
								if err == nil {
									rec.Put(key, val, ts)
								}
								// An error is indeterminate (the crash window):
								// not recorded, and the value may still surface
								// to readers as an unknown version.
							} else {
								n := 1 + rng.Intn(3)
								ks := make([]string, 0, n)
								seen := map[string]bool{}
								for len(ks) < n {
									k := keys[rng.Intn(len(keys))]
									if !seen[k] {
										seen[k] = true
										ks = append(ks, k)
									}
								}
								kvs, err := cli.ROT(ctx, ks)
								if err == nil {
									reads := make([]check.Read, len(kvs))
									for i, kv := range kvs {
										reads[i] = check.Read{Key: kv.Key, Val: string(kv.Value), TS: kv.TS}
									}
									rec.ReadTx(reads)
								}
							}
							cancel()
						}
					}(dc, ci)
				}
			}

			// Mid-workload: hard-crash one DC0 partition, then bring it back
			// over the same data directory; later, cleanly restart the other.
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(300 * time.Millisecond)
				if err := c.CrashPartition(0, 0); err != nil {
					fail <- err
					return
				}
				time.Sleep(50 * time.Millisecond)
				if err := c.RestartPartition(0, 0); err != nil {
					fail <- err
					return
				}
				time.Sleep(300 * time.Millisecond)
				if err := c.RestartPartition(0, 1); err != nil {
					fail <- err
				}
			}()
			wg.Wait()
			close(fail)
			if err := <-fail; err != nil {
				t.Fatal(err)
			}
			if err := h.Err(); err != nil {
				for _, v := range h.Violations() {
					t.Error(v)
				}
				t.FailNow()
			}
			puts, reads := h.Ops()
			if puts == 0 || reads == 0 {
				t.Fatalf("vacuous run: %d puts, %d reads recorded", puts, reads)
			}
			t.Logf("checked %d puts, %d reads", puts, reads)

			// Convergence: once replication quiesces, sessions in both DCs
			// must read the same latest version of every key.
			waitConverged(t, c, keys)
		})
	}
}

// deployment is a running 2-DC cluster a soak opens its sessions on: a
// *cluster.Cluster over the Local simulator, or a tcpDeployment.
type deployment interface {
	NewClient(dc int, tenant uint16) (cluster.Client, error)
	Servers() []cluster.Server
}

// waitConverged polls until a fresh session in each DC returns identical
// (value, timestamp) for every key.
func waitConverged(t *testing.T, c deployment, keys []string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
	defer cancel()
	var readers []cluster.Client
	for dc := 0; dc < 2; dc++ {
		cli, err := c.NewClient(dc, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		readers = append(readers, cli)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		got := make([][]wire.KV, len(readers))
		ok := true
		for i, r := range readers {
			kvs, err := r.ROT(ctx, keys)
			if err != nil {
				ok = false
				break
			}
			got[i] = kvs
		}
		if ok {
			same := true
			for i := range keys {
				if string(got[0][i].Value) != string(got[1][i].Value) || got[0][i].TS != got[1][i].TS {
					same = false
					break
				}
			}
			if same {
				return
			}
		}
		if time.Now().After(deadline) {
			for i := range keys {
				t.Logf("%s: dc0=(%q,%d) dc1=(%q,%d)", keys[i],
					got[0][i].Value, got[0][i].TS, got[1][i].Value, got[1][i].TS)
			}
			if c, ok := c.(*cluster.Cluster); ok {
				for dc := 0; dc < 2; dc++ {
					for p := 0; p < 2; p++ {
						t.Logf("dc%d-p%d cursors: %+v", dc, p, c.WALCursors(dc, p))
					}
				}
			}
			for i, s := range c.Servers() {
				if s, ok := s.(*cops.Server); ok {
					for _, k := range keys {
						t.Logf("server %d chain %s: %v", i, k, s.VersionsOf(k))
					}
				}
			}
			t.Fatal("DCs never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
