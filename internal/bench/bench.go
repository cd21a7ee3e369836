// Package bench is the measurement harness behind every table and figure
// of the paper's evaluation (Section 5). It stands up a cluster, preloads
// the key population, drives closed-loop clients (the paper's methodology:
// "clients issue operations in closed loop", load varied by the number of
// client threads), and reports throughput (PUTs + ROTs per second), average
// and 99th-percentile latencies, and CC-LO's readers-check overhead.
package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cclo"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/workload"
)

// System names a cluster configuration under test.
type System struct {
	Protocol   cluster.Protocol
	DCs        int
	Partitions int
	// Latency overrides the default network latency model.
	Latency *transport.LatencyModel
	// MaxSkew bounds physical clock skew (Cure's blocking source).
	MaxSkew time.Duration
	// DataDir, when non-empty, runs the cluster with durable WALs rooted
	// there, so the measurement includes group-committed fsyncs on the
	// write path. Empty (the default, and what every paper figure uses)
	// keeps the run purely in memory.
	DataDir string
	// WALSync selects the WAL acknowledgment contract when DataDir is set:
	// wal.SyncAlways (acked ⇒ fsynced) or wal.SyncBackground (acked ⇒
	// written; fsync within the loss window) — the measurable
	// latency/durability trade-off.
	WALSync wal.SyncMode
	// AdmitLimit enables client admission control (0 = disabled, the
	// default for every paper figure): the per-server cap on concurrently
	// running client handlers; excess client requests are shed with Busy
	// and retried by the clients with jittered backoff.
	AdmitLimit int
	// Tenants spreads the closed-loop clients — logical sessions on one
	// shared endpoint per DC, like every client — over this many admission
	// tenants, client i as tenant i mod Tenants. 0 (the default for every
	// paper figure) means one tenant.
	Tenants int
}

// Label names the system as the paper's figure legends do.
func (s System) Label() string {
	return fmt.Sprintf("%s %dDC", s.Protocol, s.DCs)
}

// RunSpec fixes the workload and load point for one measurement.
type RunSpec struct {
	Workload     workload.Config
	ClientsPerDC int
	Duration     time.Duration // measurement window
	Warmup       time.Duration // discarded leading window
	// Registry, when non-nil, has the whole cluster's metric series
	// registered into it right after Start — so a caller serving an obs
	// surface (benchfig -obs-addr) can watch the run live. Registration
	// adds no locks to any hot path; a nil Registry costs nothing.
	Registry *metrics.Registry
	// Slow, when non-nil, is handed to every partition server as its
	// slow-op trace ring.
	Slow *metrics.SlowRing
	// AllowOverloadErrors skips the run's error-budget check. Overload
	// sweeps set it: driving load far past an admission gate makes some
	// operations exhaust their Busy-retry budget by design, and those
	// ErrOverloaded results are the measurement, not a broken run.
	AllowOverloadErrors bool
}

// LoCheckStats summarizes readers-check overhead per check (Figure 6 and
// the overhead analyses of §5.4–5.6).
type LoCheckStats struct {
	Checks        uint64  // readers checks in the window
	AvgKeys       float64 // dependencies examined per check
	AvgPartitions float64 // remote partitions interrogated per check
	AvgDistinct   float64 // distinct ROT ids collected per check
	AvgCumulative float64 // ROT ids scanned per check (before dedup)
	FenceRetries  uint64  // whole-ROT retries forced by the restart-epoch fence (0 unless a partition recovered mid-window)
}

// TransportStats summarizes write-path efficiency: counter-derived fields
// (Msgs, Flushes, Coalesced, MsgsPerFlush, CoalescedFrac, WritevBytes,
// HandlerSpills) are deltas over the measurement window, while the
// SendQueue gauge fields and FlushP99Delay are whole-run values — the peak
// in particular may reflect preload/warmup congestion, not just the
// window's load. Both transports feed the flush fields through the shared
// batching engine; WritevBytes is TCP-only (Local has no copy to skip).
type TransportStats struct {
	Msgs           uint64        // messages sent in the window (≈ dispatches)
	Flushes        uint64        // coalesced batches cut (≈ write syscalls on TCP)
	Coalesced      uint64        // frames that shared a flush with an earlier frame
	MsgsPerFlush   float64       // average frames retired per flush
	CoalescedFrac  float64       // fraction of sent frames that cost no syscall
	FlushP99Delay  time.Duration // p99 enqueue→flush delay (whole run)
	WritevBytes    uint64        // frame bytes sent via scatter-gather, no staging copy
	HandlerSpills  uint64        // inbound requests that overflowed the worker pool
	SendQueuePeak  int64         // high-water mark of queued frames (whole run)
	SendQueueDepth int64         // queued frames at window end
	OpenConnsPeak  int64         // high-water mark of live sockets (whole run; 0 on Local)
	SessionsPeak   int64         // high-water mark of registered sessions (whole run)
}

// SpillFrac is the fraction of dispatches that overflowed the handler
// worker pool; sustained values above SpillWarnFrac mean the pool is
// undersized for the load (see ROADMAP: spill-rate alarm).
func (ts TransportStats) SpillFrac() float64 {
	if ts.Msgs == 0 {
		return 0
	}
	return float64(ts.HandlerSpills) / float64(ts.Msgs)
}

func transportDelta(a, b transport.StatsView) TransportStats {
	ts := TransportStats{
		Msgs:           b.MsgsSent - a.MsgsSent,
		Flushes:        b.Flushes - a.Flushes,
		Coalesced:      b.FramesCoalesced - a.FramesCoalesced,
		FlushP99Delay:  b.FlushP99Delay,
		WritevBytes:    b.WritevBytes - a.WritevBytes,
		HandlerSpills:  b.HandlerOverflow - a.HandlerOverflow,
		SendQueuePeak:  b.SendQueuePeak,
		SendQueueDepth: b.SendQueueDepth,
		OpenConnsPeak:  b.OpenConnsPeak,
		SessionsPeak:   b.SessionsPeak,
	}
	if ts.Msgs > 0 {
		ts.CoalescedFrac = float64(ts.Coalesced) / float64(ts.Msgs)
	}
	if ts.Flushes > 0 {
		ts.MsgsPerFlush = float64(ts.Coalesced+ts.Flushes) / float64(ts.Flushes)
	}
	return ts
}

// WALStats summarizes durability-path efficiency over the measurement
// window. All zero when the run has no data dir (the default), so figure
// numbers are unaffected by the subsystem's existence.
type WALStats struct {
	Mode            string  // "sync" | "async" ("" when no WAL)
	Appends         uint64  // records made durable in the window
	Fsyncs          uint64  // fsyncs that retired them
	AppendsPerFsync float64 // group-commit amortization (>1 under load)
	BatchPeak       int64   // largest single group commit (whole run)
	CursorAppends   uint64  // replication cursors persisted in the window
	RecoveryTime    time.Duration
}

func walDelta(a, b wal.StatsView, mode string) WALStats {
	w := WALStats{
		Mode:          mode,
		Appends:       b.Appends - a.Appends,
		Fsyncs:        b.Fsyncs - a.Fsyncs,
		BatchPeak:     b.BatchPeak,
		CursorAppends: b.CursorAppends - a.CursorAppends,
		RecoveryTime:  time.Duration(b.RecoveryNanos),
	}
	if w.Fsyncs > 0 {
		w.AppendsPerFsync = float64(w.Appends) / float64(w.Fsyncs)
	}
	return w
}

// AdmissionStats summarizes admission-control activity over the
// measurement window (counter deltas; DepthPeak is whole-run).
type AdmissionStats struct {
	Admitted      uint64 // client requests admitted past the gate
	Shed          uint64 // client requests answered with Busy
	ClientRetries uint64 // client-side retries those Busies triggered
	DepthPeak     int64  // high-water mark of concurrently admitted requests
}

func admissionDelta(a, b cluster.AdmissionView) AdmissionStats {
	return AdmissionStats{
		Admitted:      b.Admitted - a.Admitted,
		Shed:          b.Shed - a.Shed,
		ClientRetries: b.ClientRetries - a.ClientRetries,
		DepthPeak:     b.DepthPeak,
	}
}

// Point is one measured load point.
type Point struct {
	System       string
	ClientsPerDC int
	Throughput   float64 // PUTs + ROTs per second
	ROT          metrics.Summary
	PUT          metrics.Summary
	Errors       uint64
	Lo           LoCheckStats
	MsgsPerSec   float64
	BytesPerSec  float64
	Transport    TransportStats
	WAL          WALStats
	// Store is set only by FigureStore (the storage-engine figure); nil
	// for the load-point figures.
	Store *StoreStats `json:",omitempty"`
	// Admission is set only when the run had an admission gate
	// (System.AdmitLimit > 0); nil otherwise.
	Admission *AdmissionStats `json:",omitempty"`
}

// Run measures one load point.
func Run(sys System, spec RunSpec) (Point, error) {
	cfg := cluster.Config{
		Protocol:   sys.Protocol,
		DCs:        sys.DCs,
		Partitions: sys.Partitions,
		Latency:    sys.Latency,
		MaxSkew:    sys.MaxSkew,
		Seed:       1,
		DataDir:    sys.DataDir,
		WALSync:    sys.WALSync,
		Slow:       spec.Slow,
		AdmitLimit: sys.AdmitLimit,
	}
	c, err := cluster.Start(cfg)
	if err != nil {
		return Point{}, err
	}
	defer c.Close()
	if spec.Registry != nil {
		c.RegisterMetrics(spec.Registry)
	}

	wl := spec.Workload
	wl.Partitions = sys.Partitions
	ks := workload.BuildKeySpace(wl, c.Ring())
	if err := c.Preload(ks.Keys, wl.ValueSize); err != nil {
		return Point{}, err
	}
	// Let stabilization produce a first GSS before clients arrive.
	time.Sleep(30 * time.Millisecond)

	var (
		rotHist   = metrics.NewHistogram()
		putHist   = metrics.NewHistogram()
		errs      atomic.Uint64
		measuring atomic.Bool
		stop      atomic.Bool
		wg        sync.WaitGroup
	)

	total := sys.DCs * spec.ClientsPerDC
	wl.Tenants = sys.Tenants
	clients := make([]cluster.Client, 0, total)
	for dc := 0; dc < sys.DCs; dc++ {
		for i := 0; i < spec.ClientsPerDC; i++ {
			cli, err := c.NewClient(dc, wl.TenantOf(i))
			if err != nil {
				return Point{}, err
			}
			clients = append(clients, cli)
		}
	}
	defer func() {
		for _, cli := range clients {
			cli.Close()
		}
	}()

	ctx := context.Background()
	for i, cli := range clients {
		wg.Add(1)
		go func(i int, cli cluster.Client) {
			defer wg.Done()
			gen := workload.NewGen(wl, ks, int64(i)*7919+1)
			for !stop.Load() {
				op := gen.Next()
				start := time.Now()
				var err error
				if op.Kind == workload.OpPut {
					_, err = cli.Put(ctx, op.Keys[0], op.Value)
				} else {
					_, err = cli.ROT(ctx, op.Keys)
				}
				if err != nil {
					errs.Add(1)
					continue
				}
				if measuring.Load() {
					if op.Kind == workload.OpPut {
						putHist.Record(time.Since(start))
					} else {
						rotHist.Record(time.Since(start))
					}
				}
			}
		}(i, cli)
	}

	time.Sleep(spec.Warmup)
	loStart := c.CCLOStats()
	view0 := c.Net().Stats().View()
	wal0 := c.WALView()
	adm0 := c.Admission()
	rotHist.Reset()
	putHist.Reset()
	measuring.Store(true)
	winStart := time.Now()
	time.Sleep(spec.Duration)
	measuring.Store(false)
	window := time.Since(winStart)
	loEnd := c.CCLOStats()
	view1 := c.Net().Stats().View()
	wal1 := c.WALView()
	adm1 := c.Admission()
	stop.Store(true)
	wg.Wait()

	rot := rotHist.Snapshot()
	put := putHist.Snapshot()
	p := Point{
		System:       sys.Label(),
		ClientsPerDC: spec.ClientsPerDC,
		Throughput:   float64(rot.Count+put.Count) / window.Seconds(),
		ROT:          rot,
		PUT:          put,
		Errors:       errs.Load(),
		MsgsPerSec:   float64(view1.MsgsSent-view0.MsgsSent) / window.Seconds(),
		BytesPerSec:  float64(view1.BytesSent-view0.BytesSent) / window.Seconds(),
		Lo:           loDelta(loStart, loEnd),
		Transport:    transportDelta(view0, view1),
	}
	if sys.DataDir != "" {
		p.WAL = walDelta(wal0, wal1, sys.WALSync.String())
	}
	if sys.AdmitLimit > 0 {
		adm := admissionDelta(adm0, adm1)
		p.Admission = &adm
	}
	if !spec.AllowOverloadErrors && p.Errors > (rot.Count+put.Count)/100+10 {
		return p, fmt.Errorf("bench: %d operation errors in window (tput %.0f)", p.Errors, p.Throughput)
	}
	return p, nil
}

func loDelta(a, b cclo.StatsSnapshot) LoCheckStats {
	checks := b.Checks - a.Checks
	if checks == 0 {
		return LoCheckStats{FenceRetries: b.FenceRetries - a.FenceRetries}
	}
	return LoCheckStats{
		Checks:        checks,
		AvgKeys:       float64(b.KeysChecked-a.KeysChecked) / float64(checks),
		AvgPartitions: float64(b.PartitionsAsked-a.PartitionsAsked) / float64(checks),
		AvgDistinct:   float64(b.IDsDistinct-a.IDsDistinct) / float64(checks),
		AvgCumulative: float64(b.IDsCumulative-a.IDsCumulative) / float64(checks),
		FenceRetries:  b.FenceRetries - a.FenceRetries,
	}
}

// Series is a labelled sweep over client counts.
type Series struct {
	Label  string
	Points []Point
}

// Sweep measures sys under wl at each client count.
func Sweep(sys System, wl workload.Config, clients []int, dur, warm time.Duration) (Series, error) {
	s := Series{Label: sys.Label()}
	for _, n := range clients {
		p, err := Run(sys, RunSpec{Workload: wl, ClientsPerDC: n, Duration: dur, Warmup: warm})
		if err != nil {
			return s, fmt.Errorf("%s @%d clients: %w", sys.Label(), n, err)
		}
		s.Points = append(s.Points, p)
	}
	return s, nil
}
