package bench

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func tinyOpts() Opts {
	return Opts{
		Partitions:       4,
		KeysPerPartition: 500,
		Clients:          []int{4},
		Duration:         300 * time.Millisecond,
		Warmup:           100 * time.Millisecond,
		MaxSkew:          time.Millisecond,
		Out:              io.Discard,
	}
}

func TestRunProducesSanePoint(t *testing.T) {
	o := tinyOpts()
	wl := workload.Default(o.Partitions, o.KeysPerPartition)
	p, err := Run(System{
		Protocol: cluster.Contrarian, DCs: 1, Partitions: o.Partitions,
	}, RunSpec{Workload: wl, ClientsPerDC: 4, Duration: o.Duration, Warmup: o.Warmup})
	if err != nil {
		t.Fatal(err)
	}
	if p.Throughput <= 0 {
		t.Fatalf("throughput = %v", p.Throughput)
	}
	if p.ROT.Count == 0 || p.PUT.Count == 0 {
		t.Fatalf("no ops measured: %+v", p)
	}
	if p.ROT.Mean <= 0 || p.ROT.P99 < p.ROT.Mean/2 {
		t.Fatalf("suspicious ROT latencies: %+v", p.ROT)
	}
	if p.MsgsPerSec <= 0 || p.BytesPerSec <= 0 {
		t.Fatalf("network counters missing: %+v", p)
	}
}

// TestRunDurableReportsWALStats runs a small durable load point and checks
// the acceptance bar for the durability subsystem: group commit amortizes
// fsyncs across concurrent writers (appends/fsync > 1) and the stat flows
// through bench.Point. The plain in-memory run above must keep WAL at zero.
func TestRunDurableReportsWALStats(t *testing.T) {
	o := tinyOpts()
	// One partition concentrates every append on a single log so the
	// committer visibly coalesces; write-heavy so the window sees appends.
	wl := workload.Default(1, o.KeysPerPartition)
	wl.WriteRatio = 0.5
	p, err := Run(System{
		Protocol: cluster.Contrarian, DCs: 1, Partitions: 1,
		DataDir: t.TempDir(),
	}, RunSpec{Workload: wl, ClientsPerDC: 32, Duration: o.Duration, Warmup: o.Warmup})
	if err != nil {
		t.Fatal(err)
	}
	if p.WAL.Appends == 0 || p.WAL.Fsyncs == 0 {
		t.Fatalf("durable run reported no WAL activity: %+v", p.WAL)
	}
	if p.WAL.AppendsPerFsync <= 1 {
		t.Fatalf("group commit did not amortize: %.2f appends/fsync (batch peak %d)",
			p.WAL.AppendsPerFsync, p.WAL.BatchPeak)
	}
	t.Logf("durable point: %.0f op/s, %.1f appends/fsync, peak batch %d",
		p.Throughput, p.WAL.AppendsPerFsync, p.WAL.BatchPeak)

	// Off-by-default: an in-memory run must report an all-zero WAL block.
	p2, err := Run(System{
		Protocol: cluster.Contrarian, DCs: 1, Partitions: o.Partitions,
	}, RunSpec{Workload: wl, ClientsPerDC: 2, Duration: o.Duration, Warmup: o.Warmup})
	if err != nil {
		t.Fatal(err)
	}
	if p2.WAL != (WALStats{}) {
		t.Fatalf("in-memory run reported WAL activity: %+v", p2.WAL)
	}
}

func TestRunCCLOCollectsCheckStats(t *testing.T) {
	o := tinyOpts()
	wl := workload.Default(o.Partitions, o.KeysPerPartition)
	p, err := Run(System{
		Protocol: cluster.CCLO, DCs: 1, Partitions: o.Partitions,
	}, RunSpec{Workload: wl, ClientsPerDC: 8, Duration: o.Duration, Warmup: o.Warmup})
	if err != nil {
		t.Fatal(err)
	}
	if p.Lo.Checks == 0 {
		t.Fatal("CC-LO run recorded no readers checks")
	}
	if p.Lo.AvgDistinct <= 0 {
		t.Fatalf("no ROT ids collected: %+v", p.Lo)
	}
}

func TestFigure6DistinctGrowsWithClients(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	o := tinyOpts()
	o.Clients = []int{4, 24}
	o.Duration = 500 * time.Millisecond
	s, err := Figure6(o)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.Points[0].Lo, s.Points[1].Lo
	if hi.AvgDistinct <= lo.AvgDistinct {
		t.Fatalf("distinct ids per check did not grow with clients: %v -> %v",
			lo.AvgDistinct, hi.AvgDistinct)
	}
}

func TestSweepLabels(t *testing.T) {
	o := tinyOpts()
	wl := workload.Default(o.Partitions, o.KeysPerPartition)
	s, err := Sweep(System{Protocol: cluster.Contrarian, DCs: 1, Partitions: o.Partitions},
		wl, []int{2}, o.Duration, o.Warmup)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 1 || !strings.Contains(s.Label, "Contrarian") {
		t.Fatalf("bad series: %+v", s)
	}
}

func TestPrintTable2(t *testing.T) {
	var sb strings.Builder
	PrintTable2(&sb)
	out := sb.String()
	for _, want := range []string{"Contrarian", "COPS-SNOW", "COPS", "Cure", "O(N) readers check", "Hybrid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

// TestTable2MatchesImplementations cross-checks the qualitative claims
// against the code: Contrarian and CC-LO must be nonblocking, Cure not.
func TestTable2MatchesImplementations(t *testing.T) {
	rows := map[string]SystemRow{}
	for _, r := range Table2() {
		rows[r.Name] = r
	}
	if !rows["Contrarian"].Nonblocking || rows["Contrarian"].Clock != "Hybrid" {
		t.Fatal("Contrarian row inconsistent")
	}
	if rows["Cure"].Nonblocking {
		t.Fatal("Cure must be blocking (physical clocks)")
	}
	if rows["COPS-SNOW (CC-LO)"].Rounds != "1" {
		t.Fatal("CC-LO must be one round (that is its latency optimality)")
	}
}

// TestCompareAllSmoke exercises the five-way extension harness end to end
// at a tiny scale.
func TestCompareAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster sweep")
	}
	o := tinyOpts()
	o.Clients = []int{2}
	series, err := CompareAll(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("expected 5 protocol series, got %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 1 || s.Points[0].Throughput <= 0 {
			t.Fatalf("series %q has no sane point: %+v", s.Label, s.Points)
		}
	}
}

// TestAblationSmoke runs the clock-freshness ablation with two samples.
func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster measurement")
	}
	o := tinyOpts()
	rows, err := AblationClockFreshness(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Visibility.Count != 2 {
		t.Fatalf("ablation rows: %+v", rows)
	}
}

func TestPlotSeries(t *testing.T) {
	mk := func(tput float64, lat time.Duration) Point {
		p := Point{Throughput: tput}
		p.ROT.Count = 1
		p.ROT.Mean = lat
		return p
	}
	series := []Series{
		{Label: "fast", Points: []Point{mk(1000, 400*time.Microsecond), mk(50000, 2*time.Millisecond)}},
		{Label: "slow", Points: []Point{mk(800, 300*time.Microsecond), mk(9000, 20*time.Millisecond)}},
	}
	var sb strings.Builder
	PlotSeries(&sb, "test plot", series)
	out := sb.String()
	for _, want := range []string{"test plot", "fast", "slow", "*", "o", "throughput"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
}

func TestPlotSeriesEmpty(t *testing.T) {
	var sb strings.Builder
	PlotSeries(&sb, "empty", []Series{{Label: "none"}})
	if !strings.Contains(sb.String(), "no data") {
		t.Fatalf("empty plot output: %q", sb.String())
	}
}

// TestRunWithRegistryExposesClusterSeries is the in-process version of the
// CI observability smoke: a small durable 2-DC run with a registry attached
// must expose every layer — transport, WAL, store, per-op histograms, a
// replication-lag gauge and the stabilizers — in one Prometheus-parseable
// scrape, and a zero-threshold slow-op ring must have captured traffic.
func TestRunWithRegistryExposesClusterSeries(t *testing.T) {
	o := tinyOpts()
	wl := workload.Default(2, o.KeysPerPartition)
	wl.WriteRatio = 0.2
	reg := metrics.NewRegistry()
	ring := metrics.NewSlowRing(64, 0)
	p, err := Run(System{
		Protocol: cluster.Contrarian, DCs: 2, Partitions: 2,
		Latency: cluster.NoLatency(),
		DataDir: t.TempDir(),
	}, RunSpec{
		Workload: wl, ClientsPerDC: 4,
		Duration: o.Duration, Warmup: o.Warmup,
		Registry: reg, Slow: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Throughput <= 0 {
		t.Fatalf("no throughput: %+v", p)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	for _, want := range []string{
		"kv_transport_msgs_sent_total",
		"kv_wal_fsync_delay_seconds_bucket",
		"kv_store_keys{",
		"kv_store_versions{",
		`kv_server_op_seconds_count{`,
		`op="put"`,
		"kv_replication_last_update_age_seconds{",
		`kv_stabilizer_broadcasts_total{dc="0",family="contrarian",trigger="round"}`,
		`kv_stabilizer_broadcasts_total{dc="1",family="contrarian",trigger="tick"}`,
		"kv_stabilizer_report_age_seconds{",
		"kv_stabilizer_reports_rejected_total{",
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("scrape missing %q; exposition:\n%.2000s", want, exp)
		}
	}
	if ring.Len() == 0 {
		t.Fatal("zero-threshold slow-op ring captured nothing")
	}
	ops := ring.Snapshot()
	if len(ops) == 0 || ops[0].Total <= 0 {
		t.Fatalf("bad slow-op snapshot: %+v", ops)
	}
}
