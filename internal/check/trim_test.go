package check_test

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// TestCCLOTrimUnderRedelivery runs the checker over CC-LO with a reader GC
// window short enough that chains are trimmed to the live-mark floor all
// the time, while inter-DC loss makes replication re-deliver updates: every
// re-delivery runs a fresh readers check and lands its marks on a version
// already installed — possibly the only one a trimmed chain kept — which is
// where a ROT can be refused. Refused legs retry under a fresh id; the run
// must show zero violations, retain far fewer versions than it wrote, and
// converge once the loss stops. It reports how many legs were refused, as
// the partitions' own metrics count them.
func TestCCLOTrimUnderRedelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	c, err := cluster.Start(cluster.Config{
		Protocol:   cluster.CCLO,
		DCs:        2,
		Partitions: 2,
		Latency: &transport.LatencyModel{
			IntraDC:    50 * time.Microsecond,
			InterDC:    300 * time.Microsecond,
			JitterFrac: 0.5,
		},
		ReaderGCWindow: 20 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	c.SetInterDCLoss(0.2)

	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("tk%d", i)
	}
	h := check.New()
	const clientsPerDC = 3
	const opsPerClient = 200
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
						ks := rng.Perm(len(keys))[:1+rng.Intn(3)]
						names := make([]string, len(ks))
						for i, k := range ks {
							names[i] = keys[k]
						}
						if kvs, err := cli.ROT(ctx, names); err == nil {
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
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	versions, refused := sumSeries(scrape.String(), "kv_store_versions"), sumSeries(scrape.String(), "kv_store_snapshot_refusals_total")
	t.Logf("checked %d puts, %d reads; %v versions retained; %v ROT legs refused and retried", puts, reads, versions, refused)
	if versions >= float64(puts) {
		t.Fatalf("%v versions retained for %d puts: the chains were not trimmed", versions, puts)
	}
	c.SetInterDCLoss(0)
	waitConverged(t, c, keys)
}

// sumSeries adds up every sample of the named series in a Prometheus text
// scrape.
func sumSeries(scrape, name string) float64 {
	sum := 0.0
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, name+"{") {
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			sum += v
		}
	}
	return sum
}
