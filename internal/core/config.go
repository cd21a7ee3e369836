// Package core implements the timestamp-based causal-consistency engine of
// Section 4 of the paper. One Server instance is one partition replica.
//
// The engine is Contrarian when configured with hybrid logical-physical
// clocks (nonblocking ROTs in 1 1/2 or 2 rounds) and Cure when configured
// with loosely synchronized physical clocks (2-round ROTs that block on
// clock skew). Both variants share:
//
//   - dependency vectors DV (one entry per DC) on every version, with
//     DV[src] = the version's timestamp, enforced ≥ every other entry;
//   - a per-DC stabilization protocol aggregating partition version
//     vectors into the Global Stable Snapshot (GSS);
//   - asynchronous multi-master geo-replication with per-stream ordering
//     and replication heartbeats.
package core

import (
	"time"

	"repro/internal/hlc"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// ROTMode selects the read-only transaction protocol (Figure 3).
type ROTMode uint8

const (
	// OneAndHalfRounds is Contrarian's default: client → coordinator →
	// partitions → client, three communication steps.
	OneAndHalfRounds ROTMode = 1
	// TwoRounds is the classic coordinator protocol: client → coordinator
	// → client → partitions → client, four steps, fewer messages.
	TwoRounds ROTMode = 2
)

// ClockMode selects the timestamp source for servers.
type ClockMode uint8

const (
	// ClockHLC is Contrarian: hybrid clocks that can jump forward, giving
	// nonblocking ROTs and fresh snapshots.
	ClockHLC ClockMode = iota
	// ClockPhysical is Cure/GentleRain: physical clocks that cannot jump,
	// so reads whose snapshot is ahead of the local clock block.
	ClockPhysical
	// ClockLogical is a plain Lamport clock; nonblocking, but the GSS goes
	// stale under idle partitions (the "laggard" problem of Section 4).
	ClockLogical
)

// Config parameterizes one partition server.
type Config struct {
	DC       int // this server's data center
	Part     int // this server's partition index
	NumDCs   int
	NumParts int

	Clock ClockMode
	// Skew is this node's physical clock offset, drawn by the cluster
	// builder from ±MaxSkew to model NTP-quality synchronization.
	Skew time.Duration

	// RepFlushEvery bounds replication batching delay.
	RepFlushEvery time.Duration

	// Durable, when non-nil, makes every install durable before it is
	// visible: NewServer replays the recovered state into the store and
	// registers the snapshot source; a PUT installs only once the fsync
	// covering its (group-committed) append lands, and is acknowledged then
	// under SyncAlways, once written under SyncBackground; a replication
	// batch is fsynced before it installs and is acked. Nil keeps the server
	// purely in memory.
	Durable wal.Durability

	// Slow, when non-nil, receives a trace record for every handler
	// invocation that exceeds the ring's threshold (shared process-wide;
	// see metrics.SlowRing). Nil disables capture at zero cost.
	Slow *metrics.SlowRing
}

// Engine constants: no figure, gate or test varies them.
const (
	// stabilizePeriod is the stabilization protocol period (paper §5.2:
	// 5 ms) — both the longest a partition goes without reporting its VV
	// (it also reports whenever a replication batch moves the VV) and,
	// unless NewStabilizer is given another, the stabilizer's catch-all
	// period.
	stabilizePeriod = 5 * time.Millisecond
	// repBatchMax caps updates per replication batch.
	repBatchMax = 256
	// repWindow is one batch in flight per remote DC: stop-and-wait.
	repWindow = 1
	// repRetryTimeout bounds one replication batch attempt before the
	// (idempotent) batch is retried; it masks WAN loss quickly. Half the
	// dependency-list streams' timeout: a batch's receiver never waits on
	// another partition before it acks.
	repRetryTimeout = time.Second
)

// withDefaults fills zero fields with production defaults.
func (c Config) withDefaults() Config {
	if c.NumDCs <= 0 {
		c.NumDCs = 1
	}
	if c.NumParts <= 0 {
		c.NumParts = 1
	}
	if c.RepFlushEvery <= 0 {
		c.RepFlushEvery = 2 * time.Millisecond
	}
	return c
}

// newClock builds this node's clock per the configured mode and skew.
func (c Config) newClock() hlc.Clock {
	src := hlc.WallSource(c.Skew)
	switch c.Clock {
	case ClockPhysical:
		return hlc.NewPhysical(src)
	case ClockLogical:
		return hlc.NewLamport(0)
	default:
		return hlc.NewHLC(src)
	}
}
