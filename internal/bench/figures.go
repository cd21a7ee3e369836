package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Opts scales a figure reproduction. The zero value is NOT usable; start
// from DefaultOpts (laptop-scale, minutes) or PaperOpts (paper-scale,
// hours).
type Opts struct {
	Partitions       int
	KeysPerPartition int
	Clients          []int // clients per DC, the load sweep
	Duration         time.Duration
	Warmup           time.Duration
	MaxSkew          time.Duration
	Out              io.Writer
}

// DefaultOpts runs each figure in minutes on one machine while preserving
// the paper's relative effects.
func DefaultOpts(out io.Writer) Opts {
	return Opts{
		Partitions:       8,
		KeysPerPartition: 20_000,
		Clients:          []int{4, 16, 64, 192},
		Duration:         4 * time.Second,
		Warmup:           time.Second,
		MaxSkew:          time.Millisecond,
		Out:              out,
	}
}

// PaperOpts mirrors the paper's §5.2 testbed parameters (32 partitions,
// 1M keys/partition, 90 s runs). Expect hours of runtime.
func PaperOpts(out io.Writer) Opts {
	return Opts{
		Partitions:       32,
		KeysPerPartition: 1_000_000,
		Clients:          []int{10, 60, 120, 240, 360, 560},
		Duration:         90 * time.Second,
		Warmup:           10 * time.Second,
		MaxSkew:          time.Millisecond,
		Out:              out,
	}
}

func (o Opts) defaultWorkload() workload.Config {
	wl := workload.Default(o.Partitions, o.KeysPerPartition)
	return wl
}

// SpillWarnFrac is the handler-pool overflow rate above which a load point
// is flagged: past it, a meaningful share of dispatches ran on spilled
// goroutines, so the figure's latencies include pool-saturation scheduling
// noise and the worker pool should be considered undersized for the load.
const SpillWarnFrac = 0.01

// spillWarning renders the spill column for one load point: empty while
// overflow is rare, "!N.N%" once HandlerOverflow exceeds SpillWarnFrac of
// the window's dispatches.
func spillWarning(p Point) string {
	frac := p.Transport.SpillFrac()
	if frac <= SpillWarnFrac {
		return ""
	}
	return fmt.Sprintf("!%.1f%%", frac*100)
}

func (o Opts) printHeader(title string) {
	fmt.Fprintf(o.Out, "\n=== %s ===\n", title)
	fmt.Fprintf(o.Out, "%-28s %8s %12s %10s %10s %10s %10s %8s %8s %9s %9s %7s\n",
		"system", "clients", "tput(op/s)", "rot-avg", "rot-p99", "put-avg", "put-p99",
		"errs", "msg/fl", "fl-p99", "writev", "spill")
}

func (o Opts) printSeries(s Series) {
	for _, p := range s.Points {
		fmt.Fprintf(o.Out, "%-28s %8d %12.0f %10v %10v %10v %10v %8d %8.1f %9v %9s %7s\n",
			p.System, p.ClientsPerDC, p.Throughput,
			p.ROT.Mean.Round(10*time.Microsecond), p.ROT.P99.Round(10*time.Microsecond),
			p.PUT.Mean.Round(10*time.Microsecond), p.PUT.P99.Round(10*time.Microsecond),
			p.Errors, p.Transport.MsgsPerFlush,
			p.Transport.FlushP99Delay.Round(10*time.Microsecond),
			fmtBytes(p.Transport.WritevBytes), spillWarning(p))
	}
}

// fmtBytes renders a byte count compactly for the figure tables.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func (o Opts) sweepAndPrint(sys System, wl workload.Config) (Series, error) {
	s, err := Sweep(sys, wl, o.Clients, o.Duration, o.Warmup)
	if err != nil {
		return s, err
	}
	o.printSeries(s)
	return s, nil
}

// Figure4 reproduces the paper's Figure 4: Contrarian 1 1/2 rounds vs
// 2 rounds vs Cure, 2 DCs, default workload — throughput vs average ROT
// latency. Expected shape: Cure's latency floor sits ≈3× above Contrarian
// at low load (clock skew blocking); the 2-round variant is slightly slower
// at low load but reaches a slightly higher peak throughput.
func Figure4(o Opts) ([]Series, error) {
	o.printHeader("Figure 4: Contrarian design (2 DCs, default workload)")
	wl := o.defaultWorkload()
	var out []Series
	for _, proto := range []cluster.Protocol{cluster.ContrarianTwoRound, cluster.Contrarian, cluster.Cure} {
		s, err := o.sweepAndPrint(System{
			Protocol: proto, DCs: 2, Partitions: o.Partitions, MaxSkew: o.MaxSkew,
		}, wl)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure5 reproduces Figure 5: Contrarian vs CC-LO under the default
// workload in 1-DC and 2-DC deployments; the harness prints both average
// (5a) and 99th-percentile (5b) ROT latencies, plus PUT latencies (the
// "order of magnitude" aside of §5.2).
func Figure5(o Opts) ([]Series, error) {
	o.printHeader("Figure 5: Contrarian vs CC-LO (default workload, 1 and 2 DCs)")
	wl := o.defaultWorkload()
	var out []Series
	for _, dcs := range []int{1, 2} {
		for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.CCLO} {
			s, err := o.sweepAndPrint(System{
				Protocol: proto, DCs: dcs, Partitions: o.Partitions, MaxSkew: o.MaxSkew,
			}, wl)
			if err != nil {
				return out, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// Figure6 reproduces Figure 6: the ROT ids collected per readers check in
// CC-LO (cumulative and distinct) as a function of the number of clients,
// single DC, default workload. The paper's claim: both grow linearly with
// the client count (matching the Section 6 lower bound), with cumulative a
// small multiple of distinct.
func Figure6(o Opts) (Series, error) {
	fmt.Fprintf(o.Out, "\n=== Figure 6: ROT ids per readers check (CC-LO, 1 DC) ===\n")
	fmt.Fprintf(o.Out, "%8s %12s %12s %12s %12s %12s %8s\n",
		"clients", "checks", "distinct", "cumulative", "keys/chk", "parts/chk", "fenced")
	wl := o.defaultWorkload()
	sys := System{Protocol: cluster.CCLO, DCs: 1, Partitions: o.Partitions, MaxSkew: o.MaxSkew}
	s, err := Sweep(sys, wl, o.Clients, o.Duration, o.Warmup)
	if err != nil {
		return s, err
	}
	for _, p := range s.Points {
		fmt.Fprintf(o.Out, "%8d %12d %12.1f %12.1f %12.1f %12.1f %8d\n",
			p.ClientsPerDC, p.Lo.Checks, p.Lo.AvgDistinct, p.Lo.AvgCumulative,
			p.Lo.AvgKeys, p.Lo.AvgPartitions, p.Lo.FenceRetries)
	}
	return s, nil
}

// Figure7 reproduces Figure 7: the write-ratio sweep w ∈ {0.01, 0.05, 0.1}
// for both systems in 1-DC (7a) and 2-DC (7b) deployments. Expected shape:
// Contrarian's throughput grows with w while CC-LO's degrades (more
// frequent readers checks); CC-LO is competitive only at w=0.01 in 1 DC.
func Figure7(o Opts, dcs int) ([]Series, error) {
	o.printHeader(fmt.Sprintf("Figure 7: write-ratio sweep (%d DC)", dcs))
	var out []Series
	for _, w := range []float64{0.01, 0.05, 0.1} {
		wl := o.defaultWorkload()
		wl.WriteRatio = w
		for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.CCLO} {
			s, err := Sweep(System{
				Protocol: proto, DCs: dcs, Partitions: o.Partitions, MaxSkew: o.MaxSkew,
			}, wl, o.Clients, o.Duration, o.Warmup)
			if err != nil {
				return out, err
			}
			s.Label = fmt.Sprintf("%s w=%.2f", s.Label, w)
			for i := range s.Points {
				s.Points[i].System = s.Label
			}
			o.printSeries(s)
			out = append(out, s)
		}
	}
	return out, nil
}

// Figure8 reproduces Figure 8: the skew sweep z ∈ {0, 0.8, 0.99}, 1 DC.
// Expected shape: skew barely moves Contrarian but hurts CC-LO (longer
// dependency chains make readers checks heavier).
func Figure8(o Opts) ([]Series, error) {
	o.printHeader("Figure 8: key-popularity skew sweep (1 DC)")
	var out []Series
	for _, z := range []float64{0, 0.8, 0.99} {
		wl := o.defaultWorkload()
		wl.Zipf = z
		for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.CCLO} {
			s, err := Sweep(System{
				Protocol: proto, DCs: 1, Partitions: o.Partitions, MaxSkew: o.MaxSkew,
			}, wl, o.Clients, o.Duration, o.Warmup)
			if err != nil {
				return out, err
			}
			s.Label = fmt.Sprintf("%s z=%.2f", s.Label, z)
			for i := range s.Points {
				s.Points[i].System = s.Label
			}
			o.printSeries(s)
			out = append(out, s)
		}
	}
	return out, nil
}

// Figure9 reproduces Figure 9: the ROT-size sweep p ∈ {4, 8, 24}, 1 DC.
// Expected shape: CC-LO's low-load latency edge shrinks as p grows
// (Contrarian's extra hop amortizes); Contrarian's throughput advantage
// shrinks with p (more forwarded messages per ROT).
func Figure9(o Opts) ([]Series, error) {
	o.printHeader("Figure 9: ROT size sweep (1 DC)")
	var out []Series
	sizes := []int{4, 8, 24}
	for _, p := range sizes {
		if p > o.Partitions {
			p = o.Partitions
		}
		wl := o.defaultWorkload()
		wl.RotSize = p
		for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.CCLO} {
			s, err := Sweep(System{
				Protocol: proto, DCs: 1, Partitions: o.Partitions, MaxSkew: o.MaxSkew,
			}, wl, o.Clients, o.Duration, o.Warmup)
			if err != nil {
				return out, err
			}
			s.Label = fmt.Sprintf("%s p=%d", s.Label, p)
			for i := range s.Points {
				s.Points[i].System = s.Label
			}
			o.printSeries(s)
			out = append(out, s)
		}
	}
	return out, nil
}

// ValueSizes reproduces §5.8: the value-size sweep b ∈ {8, 128, 2048},
// 1 DC. Expected shape: the performance gap between the systems shrinks as
// marshalling dominates, with Contrarian retaining higher throughput.
func ValueSizes(o Opts) ([]Series, error) {
	o.printHeader("Section 5.8: value size sweep (1 DC)")
	var out []Series
	for _, b := range []int{8, 128, 2048} {
		wl := o.defaultWorkload()
		wl.ValueSize = b
		for _, proto := range []cluster.Protocol{cluster.Contrarian, cluster.CCLO} {
			s, err := Sweep(System{
				Protocol: proto, DCs: 1, Partitions: o.Partitions, MaxSkew: o.MaxSkew,
			}, wl, o.Clients, o.Duration, o.Warmup)
			if err != nil {
				return out, err
			}
			s.Label = fmt.Sprintf("%s b=%d", s.Label, b)
			for i := range s.Points {
				s.Points[i].System = s.Label
			}
			o.printSeries(s)
			out = append(out, s)
		}
	}
	return out, nil
}

// SystemRow is one row of the paper's Table 2, the qualitative
// characterization of CC systems with ROT support.
type SystemRow struct {
	Name        string
	Nonblocking bool
	Rounds      string
	Versions    string
	WriteCostSS string // inter-server communication on writes
	Metadata    string
	Clock       string
}

// Table2 returns the characterization of the systems implemented in this
// repository (the corresponding rows of the paper's Table 2).
func Table2() []SystemRow {
	return []SystemRow{
		{"COPS", true, "<= 2", "<= 2", "-", "|deps|", "Logical"},
		{"Cure", false, "2", "1", "-", "M", "Physical"},
		{"COPS-SNOW (CC-LO)", true, "1", "1", "O(N) readers check", "O(K) old readers", "Logical"},
		{"Contrarian", true, "1 1/2 (or 2)", "1", "-", "M", "Hybrid"},
	}
}

// PrintTable2 renders Table2.
func PrintTable2(out io.Writer) {
	fmt.Fprintf(out, "\n=== Table 2: systems characterization (N=partitions, M=DCs, K=clients/DC) ===\n")
	fmt.Fprintf(out, "%-20s %-12s %-14s %-9s %-20s %-18s %-9s\n",
		"system", "nonblocking", "rounds", "versions", "write s<->s cost", "write meta-data", "clock")
	for _, r := range Table2() {
		nb := "no"
		if r.Nonblocking {
			nb = "yes"
		}
		fmt.Fprintf(out, "%-20s %-12s %-14s %-9s %-20s %-18s %-9s\n",
			r.Name, nb, r.Rounds, r.Versions, r.WriteCostSS, r.Metadata, r.Clock)
	}
}

// FigureWAL is the durability extension table: Contrarian with no WAL,
// with a synchronous WAL (acked ⇒ fsynced), and with the background-fsync
// WAL (acked ⇒ written; bounded loss window), so the latency price of each
// durability contract — and the group-commit amortization that pays part
// of it back — is measurable side by side. dataDir hosts the WALs (a
// temporary directory; pass "" to let the harness create one).
func FigureWAL(o Opts, dataDir string) ([]Series, error) {
	o.printHeader("Durability: WAL off vs sync vs async (Contrarian, 1 DC)")
	modes := []struct {
		label string
		sync  wal.SyncMode
		wal   bool
	}{
		{"no-wal", wal.SyncAlways, false},
		{"wal-sync", wal.SyncAlways, true},
		{"wal-async", wal.SyncBackground, true},
	}
	var out []Series
	for _, m := range modes {
		sys := System{
			Protocol: cluster.Contrarian, DCs: 1, Partitions: o.Partitions, MaxSkew: o.MaxSkew,
		}
		if m.wal {
			dir := dataDir
			if dir == "" {
				tmp, err := os.MkdirTemp("", "benchwal-*")
				if err != nil {
					return out, err
				}
				defer os.RemoveAll(tmp)
				dir = tmp
			}
			sys.DataDir = filepath.Join(dir, m.label)
			sys.WALSync = m.sync
		}
		s, err := Sweep(sys, o.defaultWorkload(), o.Clients, o.Duration, o.Warmup)
		if err != nil {
			return out, err
		}
		s.Label = m.label
		for i := range s.Points {
			s.Points[i].System = m.label
		}
		o.printSeries(s)
		for _, p := range s.Points {
			if p.WAL.Appends > 0 {
				fmt.Fprintf(o.Out, "%-28s %8d   appends/fsync %.1f (peak batch %d, cursors %d)\n",
					"  └ "+m.label, p.ClientsPerDC, p.WAL.AppendsPerFsync, p.WAL.BatchPeak, p.WAL.CursorAppends)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// FigureOverload is the admission-control extension table: Contrarian
// driven far past saturation with and without the client admission gate.
// The claim under test is the overload-safety property, not a paper
// figure: with the gate, goodput plateaus near the gated capacity instead
// of collapsing under unbounded queueing — excess requests are shed with
// Busy and retried (or surfaced as ErrOverloaded once the retry budget is
// gone) while replication and the other intra-cluster traffic stay
// ungated. Shed/retry columns come from the admission counters; "errs"
// counts operations whose whole retry budget was consumed.
//
// The cluster runs with a synchronous WAL: handlers then hold their
// admission token for the group-committed fsync, which is what gives the
// server a real per-request service time to protect. A purely in-memory
// run retires requests in microseconds and never accumulates the handler
// concurrency the gate exists to bound.
func FigureOverload(o Opts, dcs int) ([]Series, error) {
	fmt.Fprintf(o.Out, "\n=== Overload: ungated vs admission gate (Contrarian, %d DC, wal-sync) ===\n", dcs)
	fmt.Fprintf(o.Out, "%-28s %8s %13s %10s %10s %8s %12s %12s %9s %7s\n",
		"system", "clients", "goodput(op/s)", "rot-p99", "put-p99",
		"errs", "shed", "retries", "depth-pk", "spill")
	gates := []struct {
		label string
		limit int
	}{
		{"ungated", 0},
		{"admit-limit 2", 2},
	}
	tmp, err := os.MkdirTemp("", "benchoverload-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	wl := o.defaultWorkload()
	var out []Series
	for _, g := range gates {
		sys := System{
			Protocol: cluster.Contrarian, DCs: dcs, Partitions: o.Partitions,
			MaxSkew: o.MaxSkew, AdmitLimit: g.limit, WALSync: wal.SyncAlways,
		}
		s := Series{Label: g.label}
		for _, n := range o.Clients {
			sys.DataDir = filepath.Join(tmp, fmt.Sprintf("%s-%d", g.label, n))
			p, err := Run(sys, RunSpec{
				Workload: wl, ClientsPerDC: n,
				Duration: o.Duration, Warmup: o.Warmup,
				AllowOverloadErrors: true,
			})
			if err != nil {
				return out, fmt.Errorf("%s @%d clients: %w", g.label, n, err)
			}
			p.System = g.label
			s.Points = append(s.Points, p)
			var shed, retries uint64
			var depthPeak int64
			if p.Admission != nil {
				shed, retries, depthPeak = p.Admission.Shed, p.Admission.ClientRetries, p.Admission.DepthPeak
			}
			fmt.Fprintf(o.Out, "%-28s %8d %13.0f %10v %10v %8d %12d %12d %9d %7s\n",
				p.System, p.ClientsPerDC, p.Throughput,
				p.ROT.P99.Round(10*time.Microsecond), p.PUT.P99.Round(10*time.Microsecond),
				p.Errors, shed, retries, depthPeak, spillWarning(p))
		}
		out = append(out, s)
	}
	return out, nil
}

// CompareAll is an extension beyond the paper's figures: all five protocol
// configurations under the default workload in one table (1 DC), placing
// COPS — the design Section 3 starts from — alongside the paper's systems.
func CompareAll(o Opts) ([]Series, error) {
	o.printHeader("Extension: all protocols, default workload (1 DC)")
	var out []Series
	for _, proto := range []cluster.Protocol{
		cluster.Contrarian, cluster.ContrarianTwoRound, cluster.Cure, cluster.COPS, cluster.CCLO,
	} {
		s, err := o.sweepAndPrint(System{
			Protocol: proto, DCs: 1, Partitions: o.Partitions, MaxSkew: o.MaxSkew,
		}, o.defaultWorkload())
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}
