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

	"repro/internal/cclo"
	"repro/internal/cops"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mvstore"
	"repro/internal/ring"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
)

// mvstoreVersion builds the canonical preload version.
func mvstoreVersion(val []byte, dv []uint64) mvstore.Version {
	return mvstore.Version{Value: val, TS: 1, SrcDC: 0, DV: vclock.Vec(dv)}
}

// Protocol selects the consistency protocol a cluster runs.
type Protocol int

const (
	// Contrarian is the paper's design: HLC clocks, nonblocking one-version
	// ROTs in 1 1/2 rounds.
	Contrarian Protocol = iota
	// ContrarianTwoRound trades ROT latency for fewer messages (§5.3).
	ContrarianTwoRound
	// Cure is the physical-clock baseline: 2-round ROTs that block on
	// clock skew.
	Cure
	// CCLO is the latency-optimal COPS-SNOW design: one-round ROTs,
	// readers checks on writes.
	CCLO
	// COPS is the original dependency-list design (§3): nonblocking ROTs
	// in at most 2 rounds and 2 versions, cheap writes, heavy metadata.
	COPS
)

// String names the protocol as in the paper's figures.
func (p Protocol) String() string {
	switch p {
	case Contrarian:
		return "Contrarian 1 1/2 rounds"
	case ContrarianTwoRound:
		return "Contrarian 2 rounds"
	case Cure:
		return "Cure"
	case CCLO:
		return "CC-LO"
	case COPS:
		return "COPS"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Config parameterizes a cluster.
type Config struct {
	Protocol   Protocol
	DCs        int
	Partitions int

	// Latency is the injected network latency model; the zero value means
	// transport.DefaultLatency. Use NoLatency for fast correctness tests.
	Latency *transport.LatencyModel
	// MaxSkew bounds per-node physical clock skew (default 1 ms, NTP-ish).
	MaxSkew time.Duration
	// StabilizeEvery is the stabilization period (default 5 ms, as §5.2).
	StabilizeEvery time.Duration
	// ReaderGCWindow is CC-LO's reader GC window (default 500 ms, as §5.2):
	// how long reader records, old-reader entries, and invisibility marks
	// live. Crash tests shrink or stretch it to make reader-state expiry
	// deterministic around a kill/restart.
	ReaderGCWindow time.Duration
	// MaxVersions caps per-key version chains.
	MaxVersions int
	// StoreShards sets every partition store's shard count (0 = auto-size
	// from GOMAXPROCS; values are rounded up to a power of two and capped at
	// store.MaxShards).
	StoreShards int
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
	// (default; acked ⇒ fsynced) or wal.SyncBackground (acked ⇒ written,
	// fsynced within WALFsyncEvery — the bounded loss window).
	WALSync wal.SyncMode
	// WALFsyncEvery bounds the SyncBackground loss window (0 = wal
	// default).
	WALFsyncEvery time.Duration
	// RepFlushEvery overrides the timestamp-based engine's replication
	// flush period (fault tests stretch it to hold replication back while
	// they crash the origin); 0 uses the core default.
	RepFlushEvery time.Duration

	// FlushBudget bounds how long the transport's batching engine keeps a
	// coalesced batch open gathering more frames (the adaptive flush
	// policy; batches still flush immediately when the send queue goes
	// idle). 0 applies transport.DefaultFlushBudget; negative selects
	// greedy drain-until-idle (the pre-engine behavior, for ablations).
	FlushBudget time.Duration
	// MaxBatchBytes caps one coalesced transport batch (0 = engine
	// default). Checker tests crank it up together with a tiny budget to
	// stress batch-boundary reordering.
	MaxBatchBytes int

	// Slow, when non-nil, is handed to every partition server: handler
	// invocations exceeding the ring's threshold are captured in it (see
	// metrics.SlowRing). Nil disables capture.
	Slow *metrics.SlowRing

	// AdmitLimit enables client admission control: it caps concurrently
	// running client handlers per partition server; excess client requests
	// are shed with wire.Busy and a retry-after hint. 0 (the default)
	// disables the gate — intra-cluster traffic is never gated either way.
	AdmitLimit int
	// ShedQueueFrames sheds client load early when the transport send
	// queue reaches this depth (0 = signal unused).
	ShedQueueFrames int64
	// ShedFsyncP99 sheds client load early when the WAL p99 fsync delay
	// reaches this (0 = signal unused).
	ShedFsyncP99 time.Duration

	// SocketPool caps connections per destination for the session-mux
	// client endpoints handed out by NewSessionClient (0 = 1 shared
	// connection). The in-process transport has no sockets and ignores it;
	// it is plumbed so TCP-backed harnesses can reuse this Config shape.
	SocketPool int
}

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
	// Close detaches the client.
	Close() error
}

// Cluster is a running deployment.
type Cluster struct {
	cfg  Config
	net  *transport.Local
	ring ring.Ring

	// The active protocol's slice is indexed dc*Partitions+p; the others
	// stay empty. logs and skews share the same indexing (logs holds nils
	// when DataDir is unset).
	coreServers []*core.Server
	ccloServers []*cclo.Server
	copsServers []*cops.Server
	stabs       []*core.Stabilizer
	logs        []*wal.Log
	skews       []time.Duration

	clientSeq []atomic.Int64 // per DC; shared by plain clients and sessions

	// muxes holds the per-DC session-mux endpoints, created lazily by the
	// first NewSessionClient in a DC. Each lives at the reserved client
	// address muxClientID and carries any number of logical sessions.
	muxMu sync.Mutex
	muxes []transport.Mux

	// ccloClients tracks CC-LO sessions handed out by NewClient so
	// CCLOStats can aggregate their client-side epoch-fence retry counters
	// (closed sessions keep their counts readable).
	ccloClientMu sync.Mutex
	ccloClients  []*cclo.Client

	// retriers tracks every session handed out by NewClient so
	// AdmissionView can aggregate client-side Busy-retry counters.
	retrierMu sync.Mutex
	retriers  []interface{ BusyRetries() uint64 }

	// logMu guards the c.logs slots against the admission gate's fsync
	// probe (a transport goroutine) racing partition restarts.
	logMu sync.RWMutex
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
		cfg.MaxSkew = time.Millisecond
	}
	if cfg.StoreShards < 0 || cfg.StoreShards > store.MaxShards {
		return nil, fmt.Errorf("cluster: StoreShards %d out of range [0, %d]", cfg.StoreShards, store.MaxShards)
	}
	lat := transport.DefaultLatency()
	if cfg.Latency != nil {
		lat = *cfg.Latency
	}
	n := cfg.DCs * cfg.Partitions
	c := &Cluster{
		cfg: cfg,
		net: transport.NewLocalOpts(lat, transport.BatchPolicy{
			FlushBudget:   transport.ResolveFlushBudget(cfg.FlushBudget),
			MaxBatchBytes: cfg.MaxBatchBytes,
		}),
		ring:      ring.New(cfg.Partitions),
		logs:      make([]*wal.Log, n),
		skews:     make([]time.Duration, n),
		clientSeq: make([]atomic.Int64, cfg.DCs),
		muxes:     make([]transport.Mux, cfg.DCs),
	}
	if cfg.AdmitLimit > 0 {
		c.net.SetAdmission(transport.AdmitConfig{
			Limit:           cfg.AdmitLimit,
			ShedQueueFrames: cfg.ShedQueueFrames,
			ShedFsyncP99:    cfg.ShedFsyncP99,
			QueueDepth:      c.net.Stats().SendQueue.Load,
			FsyncP99:        c.fsyncP99,
		})
	}
	switch cfg.Protocol {
	case COPS:
		c.copsServers = make([]*cops.Server, n)
	case CCLO:
		c.ccloServers = make([]*cclo.Server, n)
	default:
		c.coreServers = make([]*core.Server, n)
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
		if cfg.Protocol != CCLO && cfg.Protocol != COPS {
			st, err := core.NewStabilizer(dc, cfg.Partitions, cfg.DCs, cfg.StabilizeEvery, c.net)
			if err != nil {
				c.Close()
				return nil, err
			}
			st.Start()
			c.stabs = append(c.stabs, st)
		}
	}
	for _, s := range c.coreServers {
		s.Start()
	}
	for _, s := range c.ccloServers {
		s.Start()
	}
	for _, s := range c.copsServers {
		s.Start()
	}
	return c, nil
}

// openLog opens the (dc,p) partition's WAL when durability is configured.
func (c *Cluster) openLog(dc, p int) (*wal.Log, error) {
	if c.cfg.DataDir == "" {
		return nil, nil
	}
	return wal.Open(wal.Options{
		Dir:           filepath.Join(c.cfg.DataDir, fmt.Sprintf("dc%d-p%d", dc, p)),
		SegmentBytes:  c.cfg.WALSegmentBytes,
		SnapshotEvery: c.cfg.WALSnapshotEvery,
		Sync:          c.cfg.WALSync,
		FsyncEvery:    c.cfg.WALFsyncEvery,
	})
}

// startServer builds and registers the (dc,p) partition server, opening
// its WAL (and thereby replaying any previous state) when DataDir is set.
// The server is placed at index dc*Partitions+p; it is not Start()ed.
func (c *Cluster) startServer(dc, p int) error {
	idx := dc*c.cfg.Partitions + p
	log, err := c.openLog(dc, p)
	if err != nil {
		return err
	}
	// wal.Durability is an interface: a typed-nil *wal.Log must become a
	// true nil so servers see "no durability".
	var durable wal.Durability
	if log != nil {
		durable = log
	}
	switch c.cfg.Protocol {
	case COPS:
		s, err := cops.NewServer(cops.Config{
			DC: dc, Part: p, NumDCs: c.cfg.DCs, NumParts: c.cfg.Partitions,
			MaxVersions: c.cfg.MaxVersions,
			StoreShards: c.cfg.StoreShards,
			Durable:     durable,
			Slow:        c.cfg.Slow,
		}, c.net)
		if err != nil {
			closeLog(log)
			return err
		}
		c.copsServers[idx] = s
	case CCLO:
		s, err := cclo.NewServer(cclo.Config{
			DC: dc, Part: p, NumDCs: c.cfg.DCs, NumParts: c.cfg.Partitions,
			GCWindow:    c.cfg.ReaderGCWindow,
			MaxVersions: c.cfg.MaxVersions,
			StoreShards: c.cfg.StoreShards,
			Durable:     durable,
			Slow:        c.cfg.Slow,
		}, c.net)
		if err != nil {
			closeLog(log)
			return err
		}
		c.ccloServers[idx] = s
	default:
		clock := core.ClockHLC
		if c.cfg.Protocol == Cure {
			clock = core.ClockPhysical
		}
		if c.cfg.ClockOverride != nil {
			clock = *c.cfg.ClockOverride
		}
		s, err := core.NewServer(core.Config{
			DC: dc, Part: p, NumDCs: c.cfg.DCs, NumParts: c.cfg.Partitions,
			Clock:          clock,
			Skew:           c.skews[idx],
			StabilizeEvery: c.cfg.StabilizeEvery,
			RepFlushEvery:  c.cfg.RepFlushEvery,
			MaxVersions:    c.cfg.MaxVersions,
			StoreShards:    c.cfg.StoreShards,
			Durable:        durable,
			Slow:           c.cfg.Slow,
		}, c.net)
		if err != nil {
			closeLog(log)
			return err
		}
		c.coreServers[idx] = s
	}
	c.logMu.Lock()
	c.logs[idx] = log
	c.logMu.Unlock()
	return nil
}

// fsyncP99 is the admission gate's durability overload signal: the worst
// p99 fsync delay across every partition WAL (0 when durability is off).
func (c *Cluster) fsyncP99() time.Duration {
	var worst time.Duration
	c.logMu.RLock()
	for _, l := range c.logs {
		if l == nil {
			continue
		}
		if p := l.Stats().FsyncDelay.Percentile(99); p > worst {
			worst = p
		}
	}
	c.logMu.RUnlock()
	return worst
}

func closeLog(l *wal.Log) {
	if l != nil {
		l.Close()
	}
}

// stopServer closes the (dc,p) partition server and its WAL, clearing the
// slots. Safe on partially started clusters.
func (c *Cluster) stopServer(idx int) {
	switch {
	case c.coreServers != nil && c.coreServers[idx] != nil:
		c.coreServers[idx].Close()
		c.coreServers[idx] = nil
	case c.ccloServers != nil && c.ccloServers[idx] != nil:
		c.ccloServers[idx].Close()
		c.ccloServers[idx] = nil
	case c.copsServers != nil && c.copsServers[idx] != nil:
		c.copsServers[idx].Close()
		c.copsServers[idx] = nil
	}
	c.logMu.Lock()
	log := c.logs[idx]
	c.logs[idx] = nil
	c.logMu.Unlock()
	closeLog(log)
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
	if dc < 0 || dc >= c.cfg.DCs || p < 0 || p >= c.cfg.Partitions {
		return fmt.Errorf("cluster: no such partition dc%d/p%d", dc, p)
	}
	idx := dc*c.cfg.Partitions + p
	c.stopServer(idx)
	if err := c.startServer(dc, p); err != nil {
		return err
	}
	switch {
	case c.coreServers != nil:
		c.coreServers[idx].Start()
	case c.ccloServers != nil:
		c.ccloServers[idx].Start()
	case c.copsServers != nil:
		c.copsServers[idx].Start()
	}
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
	if dc < 0 || dc >= c.cfg.DCs || p < 0 || p >= c.cfg.Partitions {
		return fmt.Errorf("cluster: no such partition dc%d/p%d", dc, p)
	}
	idx := dc*c.cfg.Partitions + p
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
	idx := dc*c.cfg.Partitions + p
	if idx < 0 || idx >= len(c.logs) || c.logs[idx] == nil {
		return wal.StatsView{}
	}
	return c.logs[idx].Stats().View()
}

// WALCursors returns the (dc,p) partition's durable replication cursor
// table (nil when durability is off).
func (c *Cluster) WALCursors(dc, p int) []wal.Cursor {
	idx := dc*c.cfg.Partitions + p
	if idx < 0 || idx >= len(c.logs) || c.logs[idx] == nil {
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
	return filepath.Join(c.cfg.DataDir, fmt.Sprintf("dc%d-p%d", dc, p))
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
	for _, s := range c.coreServers {
		if s != nil {
			s.Close()
		}
	}
	for _, s := range c.ccloServers {
		if s != nil {
			s.Close()
		}
	}
	for _, s := range c.copsServers {
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
	c.muxMu.Lock()
	for _, m := range c.muxes {
		if m != nil {
			m.Close()
		}
	}
	c.muxMu.Unlock()
	c.net.Close()
}

// Ring returns the key-to-partition mapping.
func (c *Cluster) Ring() ring.Ring { return c.ring }

// Net returns the underlying in-process network (for stats).
func (c *Cluster) Net() *transport.Local { return c.net }

// NewClient attaches a new client session homed in dc.
func (c *Cluster) NewClient(dc int) (Client, error) {
	if dc < 0 || dc >= c.cfg.DCs {
		return nil, fmt.Errorf("cluster: no such DC %d", dc)
	}
	id := int(c.clientSeq[dc].Add(1))
	if c.cfg.Protocol == CCLO {
		cli, err := cclo.NewClient(cclo.ClientConfig{DC: dc, ID: id, Ring: c.ring}, c.net)
		if err != nil {
			return nil, err
		}
		c.ccloClientMu.Lock()
		c.ccloClients = append(c.ccloClients, cli)
		c.ccloClientMu.Unlock()
		c.trackRetrier(cli)
		return cli, nil
	}
	if c.cfg.Protocol == COPS {
		cli, err := cops.NewClient(cops.ClientConfig{DC: dc, ID: id, Ring: c.ring}, c.net)
		if err != nil {
			return nil, err
		}
		c.trackRetrier(cli)
		return cli, nil
	}
	mode := core.OneAndHalfRounds
	if c.cfg.Protocol == ContrarianTwoRound || c.cfg.Protocol == Cure {
		mode = core.TwoRounds
	}
	cli, err := core.NewClient(core.ClientConfig{
		DC: dc, ID: id, NumDCs: c.cfg.DCs, Ring: c.ring, Mode: mode,
	}, c.net)
	if err != nil {
		return nil, err
	}
	c.trackRetrier(cli)
	return cli, nil
}

// muxClientID is the per-DC client id reserved for the session-mux
// endpoint. clientSeq allocates ordinary ids upward from 1, so the top of
// the id space stays free.
const muxClientID = 0xFFFE

// Mux returns dc's session-mux client endpoint, creating it on first use.
// All session clients of a DC share it (and, on a real transport, its
// connection pool).
func (c *Cluster) Mux(dc int) (transport.Mux, error) {
	if dc < 0 || dc >= c.cfg.DCs {
		return nil, fmt.Errorf("cluster: no such DC %d", dc)
	}
	c.muxMu.Lock()
	defer c.muxMu.Unlock()
	if c.muxes[dc] == nil {
		m, err := c.net.AttachMux(wire.ClientAddr(dc, muxClientID), c.cfg.SocketPool)
		if err != nil {
			return nil, err
		}
		c.muxes[dc] = m
	}
	return c.muxes[dc], nil
}

// NewSessionClient opens a client session homed in dc as a logical session
// of the given tenant on the DC's shared mux endpoint, instead of
// attaching its own address. The session's local id is allocated from the
// same per-DC counter as plain client addresses, so rot identities stay
// unique across both construction paths.
func (c *Cluster) NewSessionClient(dc int, tenant uint16) (Client, error) {
	mux, err := c.Mux(dc)
	if err != nil {
		return nil, err
	}
	id := int(c.clientSeq[dc].Add(1))
	if id >= muxClientID {
		return nil, fmt.Errorf("cluster: DC %d exhausted its session id space (%d)", dc, id)
	}
	sess := wire.MakeSession(tenant, uint16(id))
	if c.cfg.Protocol == CCLO {
		cli, err := cclo.NewSessionClient(cclo.ClientConfig{DC: dc, ID: id, Ring: c.ring}, mux, sess)
		if err != nil {
			return nil, err
		}
		c.ccloClientMu.Lock()
		c.ccloClients = append(c.ccloClients, cli)
		c.ccloClientMu.Unlock()
		c.trackRetrier(cli)
		return cli, nil
	}
	if c.cfg.Protocol == COPS {
		cli, err := cops.NewSessionClient(cops.ClientConfig{DC: dc, ID: id, Ring: c.ring}, mux, sess)
		if err != nil {
			return nil, err
		}
		c.trackRetrier(cli)
		return cli, nil
	}
	mode := core.OneAndHalfRounds
	if c.cfg.Protocol == ContrarianTwoRound || c.cfg.Protocol == Cure {
		mode = core.TwoRounds
	}
	cli, err := core.NewSessionClient(core.ClientConfig{
		DC: dc, ID: id, NumDCs: c.cfg.DCs, Ring: c.ring, Mode: mode,
	}, mux, sess)
	if err != nil {
		return nil, err
	}
	c.trackRetrier(cli)
	return cli, nil
}

// TenantShed returns how many of tenant's requests the admission gate has
// shed (0 while admission is disabled).
func (c *Cluster) TenantShed(tenant uint16) uint64 {
	return c.net.AdmitStats().TenantShed(tenant)
}

// trackRetrier records a session for AdmissionView's retry aggregation
// (closed sessions keep their counts readable).
func (c *Cluster) trackRetrier(cli interface{ BusyRetries() uint64 }) {
	c.retrierMu.Lock()
	c.retriers = append(c.retriers, cli)
	c.retrierMu.Unlock()
}

// ClientBusyRetries sums the Busy-retry counters of every session this
// cluster created.
func (c *Cluster) ClientBusyRetries() uint64 {
	var sum uint64
	c.retrierMu.Lock()
	for _, cli := range c.retriers {
		sum += cli.BusyRetries()
	}
	c.retrierMu.Unlock()
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

// CCLOStats sums readers-check counters over every CC-LO server, plus the
// epoch-fence retry counters of every CC-LO session this cluster created.
func (c *Cluster) CCLOStats() cclo.StatsSnapshot {
	var sum cclo.StatsSnapshot
	for _, s := range c.ccloServers {
		if s == nil {
			continue
		}
		snap := s.Stats().Snapshot()
		sum.Checks += snap.Checks
		sum.KeysChecked += snap.KeysChecked
		sum.PartitionsAsked += snap.PartitionsAsked
		sum.IDsCumulative += snap.IDsCumulative
		sum.IDsDistinct += snap.IDsDistinct
		sum.CheckBytes += snap.CheckBytes
		sum.ReplicationChecks += snap.ReplicationChecks
	}
	c.ccloClientMu.Lock()
	for _, cli := range c.ccloClients {
		sum.FenceRetries += cli.FenceRetries()
	}
	c.ccloClientMu.Unlock()
	return sum
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
			idx := dc*c.cfg.Partitions + p
			if c.cfg.Protocol == CCLO {
				c.ccloServers[idx].Preload(keys, val)
				continue
			}
			if c.cfg.Protocol == COPS {
				c.copsServers[idx].Preload(keys, val)
				continue
			}
			s := c.coreServers[idx]
			dv := make([]uint64, c.cfg.DCs)
			dv[0] = 1
			for _, k := range keys {
				s.Store().Install(k, mvstoreVersion(val, dv))
			}
		}
	}
	return nil
}

// CoreServers exposes the timestamp-based servers (tests).
func (c *Cluster) CoreServers() []*core.Server { return c.coreServers }

// CCLOServers exposes the CC-LO servers (tests).
func (c *Cluster) CCLOServers() []*cclo.Server { return c.ccloServers }

// COPSServers exposes the COPS servers (tests).
func (c *Cluster) COPSServers() []*cops.Server { return c.copsServers }
