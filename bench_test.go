// Macro-benchmarks: one per table and figure of the paper's evaluation
// (Section 5) plus the Section 6 lower bound. Each benchmark runs a
// scaled-down version of the corresponding experiment and reports
// throughput and latency via custom metrics:
//
//	go test -bench=Figure -benchmem .
//
// For full-scale reproductions (longer sweeps, more clients, paper-scale
// key counts) use cmd/benchfig (README, "Reproducing the paper's figures");
// benchmark/results/ holds the committed reference runs of the gated
// benchmark and README compares their shapes against the paper's claims.
package causalkv_test

import (
	"io"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/theory"
	"repro/internal/workload"
)

// benchSpec is the scaled-down load point used by the figure benchmarks.
const (
	benchPartitions = 4
	benchKeys       = 2000
	benchDuration   = 1500 * time.Millisecond
	benchWarmup     = 400 * time.Millisecond
)

func reportPoint(b *testing.B, p bench.Point) {
	b.Helper()
	b.ReportMetric(p.Throughput, "ops/s")
	b.ReportMetric(float64(p.ROT.Mean.Microseconds()), "µs/rot")
	b.ReportMetric(float64(p.ROT.P99.Microseconds()), "µs/rot-p99")
	b.ReportMetric(float64(p.PUT.Mean.Microseconds()), "µs/put")
}

func runPoint(b *testing.B, sys bench.System, wl workload.Config, clients int) bench.Point {
	b.Helper()
	p, err := bench.Run(sys, bench.RunSpec{
		Workload:     wl,
		ClientsPerDC: clients,
		Duration:     benchDuration,
		Warmup:       benchWarmup,
	})
	if err != nil {
		b.Fatal(err)
	}
	reportPoint(b, p)
	return p
}

func defaultWL() workload.Config {
	return workload.Default(benchPartitions, benchKeys)
}

// BenchmarkFigure4 compares the Contrarian variants and Cure in 2 DCs
// (paper Figure 4): Cure pays a clock-skew latency floor; the 2-round
// variant trades ROT latency for fewer messages.
func BenchmarkFigure4(b *testing.B) {
	for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.ContrarianTwoRound, cluster.Cure} {
		b.Run(proto.String(), func(b *testing.B) {
			runPoint(b, bench.System{
				Protocol: proto, DCs: 2, Partitions: benchPartitions, MaxSkew: time.Millisecond,
			}, defaultWL(), 24)
		})
	}
}

// BenchmarkFigure5 compares Contrarian and CC-LO under the default
// read-heavy workload in 1 and 2 DCs (paper Figure 5, both panels: the
// reported metrics include average and 99th-percentile ROT latency).
func BenchmarkFigure5(b *testing.B) {
	for _, dcs := range []int{1, 2} {
		for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.CCLO} {
			name := proto.String() + "-" + map[int]string{1: "1DC", 2: "2DC"}[dcs]
			b.Run(name, func(b *testing.B) {
				runPoint(b, bench.System{
					Protocol: proto, DCs: dcs, Partitions: benchPartitions, MaxSkew: time.Millisecond,
				}, defaultWL(), 24)
			})
		}
	}
}

// BenchmarkFigure6 measures CC-LO's readers-check overhead growth with the
// client count (paper Figure 6): distinct and cumulative ROT ids per
// check, which Section 6 proves grow linearly with the number of clients.
func BenchmarkFigure6(b *testing.B) {
	for _, clients := range []int{8, 32} {
		b.Run(map[int]string{8: "clients-8", 32: "clients-32"}[clients], func(b *testing.B) {
			p, err := bench.Run(bench.System{
				Protocol: cluster.CCLO, DCs: 1, Partitions: benchPartitions,
			}, bench.RunSpec{
				Workload:     defaultWL(),
				ClientsPerDC: clients,
				Duration:     benchDuration,
				Warmup:       benchWarmup,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(p.Lo.AvgDistinct, "ids/check")
			b.ReportMetric(p.Lo.AvgCumulative, "cum-ids/check")
			b.ReportMetric(p.Lo.AvgPartitions, "parts/check")
		})
	}
}

// BenchmarkFigure7 sweeps the write ratio (paper Figure 7): higher write
// intensity helps Contrarian (PUTs are cheap) and hurts CC-LO (more
// readers checks).
func BenchmarkFigure7(b *testing.B) {
	for _, w := range []float64{0.01, 0.05, 0.1} {
		for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.CCLO} {
			name := proto.String() + map[float64]string{0.01: "-w0.01", 0.05: "-w0.05", 0.1: "-w0.10"}[w]
			b.Run(name, func(b *testing.B) {
				wl := defaultWL()
				wl.WriteRatio = w
				runPoint(b, bench.System{
					Protocol: proto, DCs: 1, Partitions: benchPartitions,
				}, wl, 24)
			})
		}
	}
}

// BenchmarkFigure8 sweeps key-popularity skew (paper Figure 8): skew
// lengthens causal dependency chains and hurts CC-LO only.
func BenchmarkFigure8(b *testing.B) {
	for _, z := range []float64{0, 0.8, 0.99} {
		for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.CCLO} {
			name := proto.String() + map[float64]string{0: "-z0", 0.8: "-z0.8", 0.99: "-z0.99"}[z]
			b.Run(name, func(b *testing.B) {
				wl := defaultWL()
				wl.Zipf = z
				runPoint(b, bench.System{
					Protocol: proto, DCs: 1, Partitions: benchPartitions,
				}, wl, 24)
			})
		}
	}
}

// BenchmarkFigure9 sweeps the ROT size (paper Figure 9): more partitions
// per ROT amortize Contrarian's extra communication step.
func BenchmarkFigure9(b *testing.B) {
	for _, p := range []int{2, 4} { // clamped to benchPartitions
		for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.CCLO} {
			name := proto.String() + map[int]string{2: "-p2", 4: "-p4"}[p]
			b.Run(name, func(b *testing.B) {
				wl := defaultWL()
				wl.RotSize = p
				runPoint(b, bench.System{
					Protocol: proto, DCs: 1, Partitions: benchPartitions,
				}, wl, 24)
			})
		}
	}
}

// BenchmarkValueSize sweeps item sizes (paper §5.8): marshalling costs
// grow with b and narrow the gap between the systems.
func BenchmarkValueSize(b *testing.B) {
	for _, size := range []int{8, 128, 2048} {
		for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.CCLO} {
			name := proto.String() + map[int]string{8: "-b8", 128: "-b128", 2048: "-b2048"}[size]
			b.Run(name, func(b *testing.B) {
				wl := defaultWL()
				wl.ValueSize = size
				runPoint(b, bench.System{
					Protocol: proto, DCs: 1, Partitions: benchPartitions,
				}, wl, 24)
			})
		}
	}
}

// BenchmarkLowerBound runs the Section 6 counting argument (Theorem 1):
// enumerating all 2^|D| executions and checking Lemma 1 distinctness. The
// reported metric is the worst-case write-side communication in bits,
// which must grow linearly with |D| (compare Figure 6's measured ids).
func BenchmarkLowerBound(b *testing.B) {
	const n = 14
	var bits int
	for i := 0; i < b.N; i++ {
		rep := theory.CheckLemmaOne(theory.LatencyOptimal{}, n)
		if !rep.Holds {
			b.Fatal("Lemma 1 distinctness failed")
		}
		bits = rep.WorstCaseBits
	}
	b.ReportMetric(float64(bits)/float64(n), "bits/client")
}

// BenchmarkTable2 sanity-checks the qualitative characterization table
// against the implementations (paper Table 2) — effectively free; kept as
// a bench target so every table has one.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table2()
		if len(rows) != 4 {
			b.Fatal("Table 2 must characterize the four implemented systems")
		}
	}
}

// BenchmarkAblationClockFreshness quantifies the §4 design choice of HLCs
// over plain logical clocks: remote-visibility latency of a DC0 write in
// DC1 under each clock mode (logical clocks go stale behind laggard
// partitions; HLCs advance with physical time).
func BenchmarkAblationClockFreshness(b *testing.B) {
	o := bench.DefaultOpts(io.Discard)
	o.Partitions = benchPartitions
	rows, err := bench.AblationClockFreshness(o, 20)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Visibility.Mean.Microseconds()), "µs/vis-"+r.Clock)
	}
}
