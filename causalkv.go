// Package causalkv is a causally consistent, partitioned, geo-replicated
// key-value store with read-only transactions (ROTs). It is a from-scratch
// Go reproduction of the systems studied in
//
//	Didona, Guerraoui, Wang, Zwaenepoel.
//	"Causal Consistency and Latency Optimality: Friend or Foe?"
//	VLDB 2018 (arXiv:1803.04237).
//
// Four protocol families are provided behind one API:
//
//   - Contrarian (the paper's design): nonblocking, one-version ROTs in
//     1 1/2 rounds of communication, using hybrid logical-physical clocks
//     and a per-DC stabilization protocol. No write-side overhead.
//   - Cure: the classic physical-clock baseline with 2-round ROTs that
//     block on clock skew.
//   - CCLO (COPS-SNOW): "latency-optimal" one-round ROTs that charge every
//     write a readers check whose cost grows with the number of clients —
//     the trade-off the paper shows to be a net loss.
//   - COPS: the original dependency-list design, with two-round ROTs driven
//     by per-version dependency metadata.
//
// A Cluster runs entirely in-process over a simulated network with
// configurable link latencies, which is how the paper's experiments are
// reproduced; cmd/kvserver deploys the same servers over TCP.
package causalkv

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Protocol selects the consistency protocol a Cluster runs. The values are
// the internal protocol table's, converted.
type Protocol int

const (
	// Contrarian is the paper's protocol: nonblocking one-version ROTs in
	// 1 1/2 rounds, no write-side overhead.
	Contrarian = Protocol(cluster.Contrarian)
	// ContrarianTwoRound trades one communication step of ROT latency for
	// fewer messages (higher peak throughput, §5.3).
	ContrarianTwoRound = Protocol(cluster.ContrarianTwoRound)
	// Cure is the physical-clock baseline; its ROTs block on clock skew.
	Cure = Protocol(cluster.Cure)
	// CCLO is the latency-optimal COPS-SNOW design; its writes pay the
	// readers check.
	CCLO = Protocol(cluster.CCLO)
	// COPS is the original dependency-list design: nonblocking ROTs in at
	// most two rounds (and up to two versions), cheap writes, per-version
	// dependency metadata.
	COPS = Protocol(cluster.COPS)
)

// String names the protocol.
func (p Protocol) String() string { return cluster.Protocol(p).String() }

// Options configures StartCluster. The zero value is a single-DC,
// 8-partition Contrarian cluster with LAN-like latencies.
type Options struct {
	// Protocol selects the consistency protocol (default Contrarian).
	Protocol Protocol
	// DataCenters is the number of replica sites (default 1).
	DataCenters int
	// Partitions is the number of shards per DC (default 8).
	Partitions int
	// IntraDCLatency is the simulated one-way delay within a DC
	// (default 100µs). Negative disables latency injection.
	IntraDCLatency time.Duration
	// InterDCLatency is the simulated one-way delay between DCs
	// (default 1ms). Negative disables latency injection.
	InterDCLatency time.Duration
	// MaxClockSkew bounds each node's physical clock offset (default 1ms).
	MaxClockSkew time.Duration
	// DataDir, when non-empty, makes every partition durable: acknowledged
	// writes are group-committed to a segmented write-ahead log under this
	// directory before the client sees the ack, and a cluster restarted
	// over the same directory recovers them. Empty (the default) keeps the
	// cluster purely in memory.
	DataDir string
	// SnapshotEvery enables periodic WAL snapshots (compaction + sealed
	// segment truncation) when DataDir is set; 0 disables them.
	SnapshotEvery time.Duration
	// WALSync selects the durability acknowledgment contract when DataDir
	// is set: "sync" (the default: a write is acknowledged only after its
	// fsync, so acknowledged writes always survive a crash) or "async" (a
	// Contrarian or Cure write is acknowledged once written to the OS and
	// fsynced within the WAL's background window — faster writes, with up
	// to one window of acknowledged writes lost on a crash; reads and
	// replication still see only fsynced writes, so replicas never
	// diverge; CC-LO and COPS still acknowledge after the fsync). Any other
	// value makes StartCluster fail.
	WALSync string
	// AdmitLimit enables client admission control: it caps concurrently
	// running client handlers per partition server. Excess client requests
	// are shed with a typed busy response and retried by sessions with
	// jittered backoff; a session whose retry budget is exhausted surfaces
	// ErrOverloaded. 0 (the default) disables the gate. Intra-cluster
	// traffic (replication, stabilization, readers checks) is never gated.
	AdmitLimit int
}

// ErrOverloaded is returned by session operations once the Busy-retry
// budget against a shedding server is exhausted. Callers should back off
// at the application level; errors.Is(err, ErrOverloaded) detects it.
var ErrOverloaded = transport.ErrOverloaded

func (o Options) withDefaults() Options {
	if o.DataCenters <= 0 {
		o.DataCenters = 1
	}
	if o.Partitions <= 0 {
		o.Partitions = 8
	}
	def := transport.DefaultLatency()
	if o.IntraDCLatency == 0 {
		o.IntraDCLatency = def.IntraDC
	}
	if o.InterDCLatency == 0 {
		o.InterDCLatency = def.InterDC
	}
	if o.MaxClockSkew == 0 {
		o.MaxClockSkew = cluster.DefaultMaxSkew
	}
	return o
}

// Item is one ROT result: the key, the version's value (nil if the key
// does not exist in the snapshot), and the version's timestamp.
type Item struct {
	Key       string
	Value     []byte
	Timestamp uint64
}

// Cluster is a running in-process deployment.
type Cluster struct {
	opts  Options
	inner *cluster.Cluster
}

// StartCluster builds and starts a cluster.
func StartCluster(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	lat := transport.LatencyModel{
		IntraDC:    max(opts.IntraDCLatency, 0),
		InterDC:    max(opts.InterDCLatency, 0),
		JitterFrac: 0.1,
	}
	mode, err := wal.ParseSyncMode(opts.WALSync)
	if err != nil {
		return nil, fmt.Errorf("causalkv: %w", err)
	}
	inner, err := cluster.Start(cluster.Config{
		Protocol:         cluster.Protocol(opts.Protocol),
		DCs:              opts.DataCenters,
		Partitions:       opts.Partitions,
		Latency:          &lat,
		MaxSkew:          opts.MaxClockSkew,
		DataDir:          opts.DataDir,
		WALSnapshotEvery: opts.SnapshotEvery,
		WALSync:          mode,
		AdmitLimit:       opts.AdmitLimit,
	})
	if err != nil {
		return nil, fmt.Errorf("causalkv: %w", err)
	}
	return &Cluster{opts: opts, inner: inner}, nil
}

// Close stops every server and detaches every session.
func (c *Cluster) Close() { c.inner.Close() }

// Options returns the cluster's effective configuration.
func (c *Cluster) Options() Options { return c.opts }

// NewSession opens a client session homed in data center dc. A session
// carries the causal context that makes its reads observe monotonically
// increasing causally consistent snapshots, including its own writes. It
// is NewTenantSession(dc, 0).
func (c *Cluster) NewSession(dc int) (*Session, error) {
	return c.NewTenantSession(dc, 0)
}

// NewTenantSession opens a client session homed in dc as a logical
// session of the given tenant, multiplexed with every other session of
// that DC over one shared endpoint (and, over TCP, one socket per
// server). Under admission control the server sheds and queues
// per tenant, so a saturating tenant cannot starve a trickle tenant.
func (c *Cluster) NewTenantSession(dc int, tenant uint16) (*Session, error) {
	cli, err := c.inner.NewClient(dc, tenant)
	if err != nil {
		return nil, fmt.Errorf("causalkv: %w", err)
	}
	return &Session{cli: cli, dc: dc}, nil
}

// Session is a client with a causal context. Sessions are safe for
// concurrent use, but the intended model — and the one the paper's
// workloads use — is one session per logical client.
type Session struct {
	cli cluster.Client
	dc  int
}

// DC returns the session's home data center.
func (s *Session) DC() int { return s.dc }

// Close releases the session.
func (s *Session) Close() error { return s.cli.Close() }

// Put installs a new version of key and returns its timestamp. The new
// version causally depends on everything the session has observed.
func (s *Session) Put(ctx context.Context, key string, value []byte) (uint64, error) {
	return s.cli.Put(ctx, key, value)
}

// Get reads one key from a causally consistent snapshot. It returns nil if
// the key does not exist.
func (s *Session) Get(ctx context.Context, key string) ([]byte, error) {
	return s.cli.Get(ctx, key)
}

// ReadTx executes a read-only transaction: all keys are read from one
// causally consistent snapshot (never the Figure 1 anomaly of observing a
// new album entry with stale permissions). Results align with keys.
func (s *Session) ReadTx(ctx context.Context, keys ...string) ([]Item, error) {
	kvs, err := s.cli.ROT(ctx, keys)
	if err != nil {
		return nil, err
	}
	items := make([]Item, len(kvs))
	for i, kv := range kvs {
		items[i] = Item{Key: kv.Key, Value: kv.Value, Timestamp: kv.TS}
	}
	return items, nil
}
