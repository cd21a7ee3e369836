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
	"repro/internal/transport"
)

// TestCausalityUnderAggressiveBatching runs the causal-consistency checker
// over the unified Local batching engine at both extremes of the flush
// policy — a tiny budget that cuts batches mid-backlog, and a huge-batch
// configuration that coalesces as hard as the engine allows — for all
// three protocol families. Batches arrive as units with one latency charge
// and jitter reorders them across links, so if coalescing could ever
// reorder its way into a causality violation, sessions here would observe
// it. (The paper's guarantees are per-session; the transport itself
// promises no cross-message ordering, which is exactly why this must be
// policed by the checker rather than assumed.)
func TestCausalityUnderAggressiveBatching(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	configs := []struct {
		name   string
		budget time.Duration
		batch  int
	}{
		// Budget of 1ns: every gather re-checks the clock and cuts almost
		// immediately — maximal batch-boundary churn.
		{"tiny-budget", time.Nanosecond, 0},
		// 5ms budget with 1 MiB batches: maximal coalescing; under load a
		// frame may ride a batch for several milliseconds.
		{"huge-batches", 5 * time.Millisecond, 1 << 20},
	}
	for _, proto := range cluster.Families() {
		for _, bc := range configs {
			t.Run(fmt.Sprintf("%s/%s", proto, bc.name), func(t *testing.T) {
				t.Parallel()
				// Real (small) link latencies with strong jitter, so batches
				// traverse the delivery wheels and can overtake each other.
				lat := &transport.LatencyModel{
					IntraDC:    50 * time.Microsecond,
					InterDC:    300 * time.Microsecond,
					JitterFrac: 0.5,
				}
				c, err := cluster.Start(cluster.Config{
					Protocol:      proto,
					DCs:           2,
					Partitions:    2,
					Latency:       lat,
					MaxVersions:   256,
					Seed:          1,
					FlushBudget:   bc.budget,
					MaxBatchBytes: bc.batch,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				keys := make([]string, 8)
				for i := range keys {
					keys[i] = fmt.Sprintf("bk%d", i)
				}
				seedCtx, cancelSeed := context.WithTimeout(context.Background(), 20*time.Second)
				seeder, err := c.NewClient(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				remote, err := c.NewClient(1, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range keys {
					if _, err := seeder.Put(seedCtx, k, []byte(fmt.Sprintf("seed-%d", i))); err != nil {
						t.Fatal(err)
					}
				}
				for _, k := range keys {
					for {
						v, err := remote.Get(seedCtx, k)
						if err != nil {
							t.Fatal(err)
						}
						if v != nil {
							break
						}
						time.Sleep(2 * time.Millisecond)
					}
				}
				seeder.Close()
				remote.Close()
				cancelSeed()

				h := check.New()
				const clientsPerDC = 3
				const opsPerClient = 120
				var wg sync.WaitGroup
				fail := make(chan error, clientsPerDC*2)
				for dc := 0; dc < 2; dc++ {
					for ci := 0; ci < clientsPerDC; ci++ {
						wg.Add(1)
						go func(dc, ci int) {
							defer wg.Done()
							name := fmt.Sprintf("dc%d-c%d", dc, ci)
							cli, err := c.NewClient(dc, 0)
							if err != nil {
								fail <- err
								return
							}
							defer cli.Close()
							rec := h.Client(name)
							rng := rand.New(rand.NewSource(int64(dc*100 + ci)))
							seq := 0
							for op := 0; op < opsPerClient; op++ {
								ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
								if rng.Intn(100) < 35 {
									key := keys[rng.Intn(len(keys))]
									seq++
									val := fmt.Sprintf("%s-%d", name, seq)
									if ts, err := cli.Put(ctx, key, []byte(val)); err == nil {
										rec.Put(key, val, ts)
									} else {
										fail <- fmt.Errorf("%s put: %w", name, err)
									}
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
									if kvs, err := cli.ROT(ctx, ks); err == nil {
										reads := make([]check.Read, len(kvs))
										for i, kv := range kvs {
											reads[i] = check.Read{Key: kv.Key, Val: string(kv.Value), TS: kv.TS}
										}
										rec.ReadTx(reads)
									} else {
										fail <- fmt.Errorf("%s rot: %w", name, err)
									}
								}
								cancel()
							}
						}(dc, ci)
					}
				}
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
				waitConverged(t, c, keys)
			})
		}
	}
}
