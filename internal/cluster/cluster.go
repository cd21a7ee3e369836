// Package cluster assembles complete multi-DC deployments of the protocols
// — Contrarian, Cure, CC-LO, and COPS — over the in-process transport,
// mirroring the paper's testbed (§5.2): N partitions per DC, M DCs, a
// stabilization service per DC for the timestamp-based protocols, and
// closed-loop clients homed in a DC.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config parameterizes a cluster.
type Config struct {
	Protocol   Protocol
	DCs        int
	Partitions int

	// Latency is the injected network latency model; the zero value means
	// transport.DefaultLatency. Use NoLatency for fast correctness tests.
	Latency *transport.LatencyModel
	// MaxSkew bounds per-node physical clock skew (0 = DefaultMaxSkew).
	MaxSkew time.Duration
	// ReaderGCWindow is CC-LO's reader GC window (default 500 ms, as §5.2):
	// how long reader records, old-reader entries, and invisibility marks
	// live. Crash tests shrink or stretch it to make reader-state expiry
	// deterministic around a kill/restart.
	ReaderGCWindow time.Duration
	// MaxVersions caps COPS's per-key version chains (0 = its default, 64).
	// Every other family trims by what a reader can still be served: the
	// timestamp families by their GSS frontier, CC-LO by the reader GC
	// window.
	MaxVersions int
	// Seed randomizes clock skews deterministically.
	Seed int64
	// ClockOverride forces a clock mode for the timestamp-based protocols
	// (ablations: Contrarian on plain logical clocks loses GSS freshness —
	// §4 "Freshness of the snapshots").
	ClockOverride *core.ClockMode

	// DataDir, when non-empty, gives every partition server a durable
	// write-ahead log under DataDir/dc<d>-p<p>: acknowledged installs
	// survive a crash and RestartPartition recovers them. Empty (the
	// default) keeps the cluster purely in memory, so benchmark figures are
	// unaffected unless durability is asked for.
	DataDir string
	// WALSnapshotEvery enables periodic WAL snapshots (store serialization
	// plus sealed-segment truncation); 0 disables them. Only meaningful
	// with DataDir set.
	WALSnapshotEvery time.Duration
	// WALSegmentBytes overrides the WAL segment size (tests force small
	// segments to exercise rotation); 0 uses the wal default.
	WALSegmentBytes int64
	// WALSync selects the WAL acknowledgment contract: wal.SyncAlways
	// (default; acked ⇒ fsynced) or wal.SyncBackground (a Contrarian or
	// Cure PUT is acked ⇒ written, fsynced within WALFsyncEvery — the
	// bounded loss window; CC-LO and COPS still ack after the fsync).
	WALSync wal.SyncMode
	// WALFsyncEvery bounds the SyncBackground loss window (0 = wal
	// default).
	WALFsyncEvery time.Duration
	// RepFlushEvery overrides the timestamp-based engine's replication
	// flush period (fault tests stretch it to hold replication back while
	// they crash the origin); 0 uses the core default.
	RepFlushEvery time.Duration

	// Slow, when non-nil, is handed to every partition server: handler
	// invocations exceeding the ring's threshold are captured in it (see
	// metrics.SlowRing). Nil disables capture.
	Slow *metrics.SlowRing

	// AdmitLimit enables client admission control: it caps concurrently
	// running client handlers per partition server; excess client requests
	// are shed with wire.Busy and a retry-after hint. 0 (the default)
	// disables the gate — intra-cluster traffic is never gated either way.
	AdmitLimit int
}

// DefaultMaxSkew is the clock skew bound a cluster runs with when none is
// given: NTP-quality synchronization.
const DefaultMaxSkew = time.Millisecond

// NoLatency is a latency model for correctness tests: messages still pay
// full marshalling costs but fly instantly.
func NoLatency() *transport.LatencyModel { return &transport.LatencyModel{} }

// Client is the operation interface shared by all protocol clients.
type Client interface {
	// Put installs a new version of key and returns its timestamp.
	Put(ctx context.Context, key string, value []byte) (uint64, error)
	// Get reads one key causally.
	Get(ctx context.Context, key string) ([]byte, error)
	// ROT reads keys from one causally consistent snapshot.
	ROT(ctx context.Context, keys []string) ([]wire.KV, error)
	// Warm pings every partition of the client's DC, establishing return
	// paths before the first ROT (required over TCP).
	Warm(ctx context.Context) error
	// BusyRetries counts the Busy responses the session has retried.
	BusyRetries() uint64
	// FenceRetries counts the ROT attempts a restart fence made the session
	// retry (only CC-LO's fence ever trips).
	FenceRetries() uint64
	// Close detaches the client.
	Close() error
}

// Cluster is a running deployment.
type Cluster struct {
	cfg  Config
	net  *transport.Local
	ring ring.Ring

	// servers is indexed dc*Partitions+p and holds nil for a partition
	// that is down. logs and skews share the same indexing (logs holds nils
	// when DataDir is unset).
	servers []Server
	stabs   []*core.Stabilizer
	logs    []*wal.Log
	skews   []time.Duration

	clientSeq []atomic.Int64 // per DC: session ids, which are also CC-LO rot identities

	// muxes holds each DC's client endpoint, attached by Start at the
	// reserved client address muxClientID. Every client of the DC is a
	// logical session on it.
	muxes []transport.Mux

	// clients tracks every session this cluster handed out, so client-side
	// counters (Busy retries, CC-LO fence retries) can be aggregated; closed
	// sessions keep their counts readable.
	clientMu sync.Mutex
	clients  []Client
}

// Start builds and starts a cluster.
func Start(cfg Config) (*Cluster, error) {
	if cfg.DCs <= 0 {
		cfg.DCs = 1
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.MaxSkew == 0 {
		cfg.MaxSkew = DefaultMaxSkew
	}
	lat := transport.DefaultLatency()
	if cfg.Latency != nil {
		lat = *cfg.Latency
	}
	n := cfg.DCs * cfg.Partitions
	c := &Cluster{
		cfg:       cfg,
		net:       transport.NewLocal(lat),
		ring:      ring.New(cfg.Partitions),
		servers:   make([]Server, n),
		logs:      make([]*wal.Log, n),
		skews:     make([]time.Duration, n),
		clientSeq: make([]atomic.Int64, cfg.DCs),
		muxes:     make([]transport.Mux, cfg.DCs),
	}
	c.net.SetAdmission(cfg.AdmitLimit)
	for dc := range c.muxes {
		m, err := c.net.AttachMux(wire.ClientAddr(dc, muxClientID), 0)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.muxes[dc] = m
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for i := range c.skews {
		if cfg.MaxSkew > 0 {
			c.skews[i] = time.Duration(rng.Int63n(int64(2*cfg.MaxSkew))) - cfg.MaxSkew
		}
	}

	for dc := 0; dc < cfg.DCs; dc++ {
		for p := 0; p < cfg.Partitions; p++ {
			if err := c.startServer(dc, p); err != nil {
				c.Close()
				return nil, err
			}
		}
		if cfg.Protocol.Stabilized() {
			st, err := cfg.NewStabilizer(dc, c.net)
			if err != nil {
				c.Close()
				return nil, err
			}
			st.Start()
			c.stabs = append(c.stabs, st)
		}
	}
	for _, s := range c.servers {
		s.Start()
	}
	return c, nil
}

// OpenLog opens the (dc,p) partition's WAL — recovering whatever a previous
// incarnation left there — or returns nil when durability is off.
func (cfg Config) OpenLog(dc, p int) (*wal.Log, error) {
	if cfg.DataDir == "" {
		return nil, nil
	}
	return wal.Open(wal.Options{
		Dir:           cfg.walDir(dc, p),
		SegmentBytes:  cfg.WALSegmentBytes,
		SnapshotEvery: cfg.WALSnapshotEvery,
		Sync:          cfg.WALSync,
		FsyncEvery:    cfg.WALFsyncEvery,
	})
}

// startServer builds and registers the (dc,p) partition server, opening
// its WAL (and thereby replaying any previous state) when DataDir is set.
// The server is placed at index dc*Partitions+p; it is not Start()ed.
func (c *Cluster) startServer(dc, p int) error {
	idx := dc*c.cfg.Partitions + p
	log, err := c.cfg.OpenLog(dc, p)
	if err != nil {
		return err
	}
	s, err := c.cfg.NewServer(dc, p, c.skews[idx], log, c.net)
	if err != nil {
		closeLog(log)
		return err
	}
	c.servers[idx] = s
	c.logs[idx] = log
	return nil
}

func closeLog(l *wal.Log) {
	if l != nil {
		l.Close()
	}
}

// stopServer closes the (dc,p) partition server and its WAL, clearing the
// slots. Safe on partially started clusters.
func (c *Cluster) stopServer(idx int) {
	if s := c.servers[idx]; s != nil {
		s.Close()
		c.servers[idx] = nil
	}
	closeLog(c.logs[idx])
	c.logs[idx] = nil
}

// index returns the (dc,p) partition's slot in servers and logs, or false
// when either coordinate is out of range.
func (c *Cluster) index(dc, p int) (int, bool) {
	if dc < 0 || dc >= c.cfg.DCs || p < 0 || p >= c.cfg.Partitions {
		return 0, false
	}
	return dc*c.cfg.Partitions + p, true
}

// RestartPartition stops the (dc,p) partition server — flushed or not,
// every acknowledged write is already on disk — and starts a fresh server
// over the same data directory, driving WAL recovery. It requires DataDir;
// tests use it as the in-process stand-in for kill -9 + restart (the torn
// final record a real crash can leave is injected by the fault tests
// directly into the segment file between stop and restart).
func (c *Cluster) RestartPartition(dc, p int) error {
	if c.cfg.DataDir == "" {
		return fmt.Errorf("cluster: RestartPartition requires DataDir")
	}
	idx, ok := c.index(dc, p)
	if !ok {
		return fmt.Errorf("cluster: no such partition dc%d/p%d", dc, p)
	}
	c.stopServer(idx)
	if err := c.startServer(dc, p); err != nil {
		return err
	}
	c.servers[idx].Start()
	return nil
}

// CrashPartition hard-kills the (dc,p) partition: the WAL is crashed first
// — discarding every byte the last fsync did not cover, exactly as a power
// cut discards the kernel page cache — and the server is then torn down,
// failing whatever was in flight. The partition stays down (its address
// unreachable) until RestartPartition brings it back over the same data
// directory. Together they are the in-process kill -9.
func (c *Cluster) CrashPartition(dc, p int) error {
	if c.cfg.DataDir == "" {
		return fmt.Errorf("cluster: CrashPartition requires DataDir")
	}
	idx, ok := c.index(dc, p)
	if !ok {
		return fmt.Errorf("cluster: no such partition dc%d/p%d", dc, p)
	}
	if l := c.logs[idx]; l != nil {
		if err := l.Crash(); err != nil {
			return err
		}
	}
	c.stopServer(idx)
	return nil
}

// WALViewOf returns the (dc,p) partition's own WAL counters (fault tests
// assert per-side effects — e.g. that a recovered tail reached the remote
// WAL exactly once), or the zero view when durability is off.
func (c *Cluster) WALViewOf(dc, p int) wal.StatsView {
	idx, ok := c.index(dc, p)
	if !ok || c.logs[idx] == nil {
		return wal.StatsView{}
	}
	return c.logs[idx].Stats().View()
}

// WALCursors returns the (dc,p) partition's durable replication cursor
// table (nil when durability is off).
func (c *Cluster) WALCursors(dc, p int) []wal.Cursor {
	idx, ok := c.index(dc, p)
	if !ok || c.logs[idx] == nil {
		return nil
	}
	return c.logs[idx].Cursors()
}

// SetInterDCLoss adjusts the simulated WAN loss at runtime (fault tests
// sever and heal cross-DC links around crashes).
func (c *Cluster) SetInterDCLoss(frac float64) { c.net.SetInterDCLoss(frac) }

// WALDir returns the (dc,p) partition's WAL directory (fault tests corrupt
// segment tails there), or "" when durability is off.
func (c *Cluster) WALDir(dc, p int) string {
	if c.cfg.DataDir == "" {
		return ""
	}
	return c.cfg.walDir(dc, p)
}

// walDir names the (dc,p) partition's WAL directory under DataDir.
func (cfg Config) walDir(dc, p int) string {
	return filepath.Join(cfg.DataDir, fmt.Sprintf("dc%d-p%d", dc, p))
}

// WALView aggregates WAL counters over every partition log (zero when
// durability is off).
func (c *Cluster) WALView() wal.StatsView {
	var v wal.StatsView
	for _, l := range c.logs {
		if l != nil {
			v.Merge(l.Stats().View())
		}
	}
	return v
}

// Close stops every component: servers first (draining their appends),
// then their logs, then the stabilizers and the network.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		if s != nil {
			s.Close()
		}
	}
	for _, l := range c.logs {
		closeLog(l)
	}
	for _, st := range c.stabs {
		st.Close()
	}
	for _, m := range c.muxes {
		if m != nil {
			m.Close()
		}
	}
	c.net.Close()
}

// Ring returns the key-to-partition mapping.
func (c *Cluster) Ring() ring.Ring { return c.ring }

// Net returns the underlying in-process network (for stats).
func (c *Cluster) Net() *transport.Local { return c.net }

// NewClient opens a client homed in dc as a logical session of the given
// tenant on the DC's client endpoint.
func (c *Cluster) NewClient(dc int, tenant uint16) (Client, error) {
	if dc < 0 || dc >= c.cfg.DCs {
		return nil, fmt.Errorf("cluster: no such DC %d", dc)
	}
	id := int(c.clientSeq[dc].Add(1))
	if id >= muxClientID {
		return nil, fmt.Errorf("cluster: DC %d exhausted its session id space (%d)", dc, id)
	}
	cli, err := c.cfg.NewClient(dc, id, tenant, c.muxes[dc])
	if err != nil {
		return nil, err
	}
	c.clientMu.Lock()
	c.clients = append(c.clients, cli)
	c.clientMu.Unlock()
	return cli, nil
}

// muxClientID is the per-DC client id reserved for the client endpoint.
// clientSeq allocates session ids upward from 1, so the top of the id space
// stays free.
const muxClientID = 0xFFFE

// ClientBusyRetries sums the Busy-retry counters of every session this
// cluster created.
func (c *Cluster) ClientBusyRetries() uint64 {
	var sum uint64
	c.clientMu.Lock()
	for _, cli := range c.clients {
		sum += cli.BusyRetries()
	}
	c.clientMu.Unlock()
	return sum
}

// fenceRetries sums the epoch-fence ROT retries of every session.
func (c *Cluster) fenceRetries() uint64 {
	var sum uint64
	c.clientMu.Lock()
	for _, cli := range c.clients {
		sum += cli.FenceRetries()
	}
	c.clientMu.Unlock()
	return sum
}

// AdmissionView is a frozen copy of the cluster's admission-control
// counters plus the client-side retry total (all zero while admission is
// disabled).
type AdmissionView struct {
	transport.AdmitStatsView
	ClientRetries uint64
}

// Admission returns the current admission-control counters.
func (c *Cluster) Admission() AdmissionView {
	return AdmissionView{
		AdmitStatsView: c.net.AdmitStats().View(),
		ClientRetries:  c.ClientBusyRetries(),
	}
}

// Preload installs an initial version of every key directly into every
// replica's store, bypassing the protocols. keysByPartition[p] must hold
// keys owned by partition p (as built by workload.BuildKeySpace). Preloaded
// versions carry timestamp 1 from DC 0 and depend on nothing, so they are
// visible in any snapshot; benchmarks use this to stand up the paper's 1M
// keys/partition data set without paying millions of protocol PUTs.
func (c *Cluster) Preload(keysByPartition [][]string, valueSize int) error {
	if len(keysByPartition) != c.cfg.Partitions {
		return fmt.Errorf("cluster: preload expects %d partitions, got %d", c.cfg.Partitions, len(keysByPartition))
	}
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte(i)
	}
	for dc := 0; dc < c.cfg.DCs; dc++ {
		for p, keys := range keysByPartition {
			c.servers[dc*c.cfg.Partitions+p].Preload(keys, val)
		}
	}
	return nil
}

// Servers exposes the partition servers, indexed dc*Partitions+p (tests
// assert the concrete type where they probe a family's internals).
func (c *Cluster) Servers() []Server { return c.servers }
