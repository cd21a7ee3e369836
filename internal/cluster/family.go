package cluster

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cclo"
	"repro/internal/cops"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// This file is the joint between the protocol families and everything that
// assembles them — Cluster, cmd/kvserver, cmd/kvctl, the public API. A
// family is one row of the table below plus one case in NewServer and one
// in NewClient; nothing else outside the family packages names one.

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

// families is the protocol table, indexed by Protocol. rot and clock are
// read only for the stabilized (core-backed) rows.
var families = [...]struct {
	name       string // as in the paper's figures
	slug       string // -protocol value and "family" metric label
	stabilized bool   // runs a per-DC stabilization service
	rot        core.ROTMode
	clock      core.ClockMode
}{
	Contrarian:         {"Contrarian 1 1/2 rounds", "contrarian", true, core.OneAndHalfRounds, core.ClockHLC},
	ContrarianTwoRound: {"Contrarian 2 rounds", "contrarian2r", true, core.TwoRounds, core.ClockHLC},
	Cure:               {"Cure", "cure", true, core.TwoRounds, core.ClockPhysical},
	CCLO:               {name: "CC-LO", slug: "cclo"},
	COPS:               {name: "COPS", slug: "cops"},
}

func (p Protocol) valid() bool { return p >= 0 && int(p) < len(families) }

// String names the protocol as in the paper's figures.
func (p Protocol) String() string {
	if !p.valid() {
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
	return families[p].name
}

// Slug is the protocol's -protocol flag value and metric-label value: the
// figure name flattened to the Prometheus label-value conventions (no
// spaces to quote in queries).
func (p Protocol) Slug() string {
	if !p.valid() {
		return "unknown"
	}
	return families[p].slug
}

// Stabilized reports whether the protocol needs a stabilization service
// per DC (the timestamp families do; the dependency-list ones do not).
func (p Protocol) Stabilized() bool { return p.valid() && families[p].stabilized }

// Families lists every protocol in the table.
func Families() []Protocol {
	ps := make([]Protocol, len(families))
	for i := range ps {
		ps[i] = Protocol(i)
	}
	return ps
}

// ParseProtocol maps a slug back to its protocol; the error lists the
// accepted slugs.
func ParseProtocol(s string) (Protocol, error) {
	slugs := make([]string, len(families))
	for p, f := range families {
		if f.slug == s {
			return Protocol(p), nil
		}
		slugs[p] = f.slug
	}
	return 0, fmt.Errorf("cluster: unknown protocol %q (want %s)", s, strings.Join(slugs, "|"))
}

// Server is what the assembly code needs of a partition server, whichever
// family it belongs to.
type Server interface {
	// Start launches background replication (and VV reporting).
	Start()
	// Close stops background work and detaches from the network.
	Close() error
	// RegisterMetrics exposes the server's series under r.
	RegisterMetrics(r *metrics.Registry, labels ...metrics.Label)
	// Preload installs an initial version (ts 1, DC 0, no dependencies) of
	// each key directly, bypassing the protocol.
	Preload(keys []string, val []byte)
	// ForEachLatest visits every key's newest version.
	ForEachLatest(fn func(key string, value []byte, ts uint64, srcDC uint8))
}

// NewServer builds the (dc,part) partition server of cfg's protocol and
// attaches it to net; it is not Start()ed. skew is the node's physical
// clock offset (the timestamp families); log is its WAL, nil for an
// in-memory partition.
func (cfg Config) NewServer(dc, part int, skew time.Duration, log *wal.Log, net transport.Network) (Server, error) {
	// wal.Durability is an interface: a nil *wal.Log must become a true nil
	// so servers see "no durability". Likewise a failed constructor returns
	// an untyped nil Server, so callers can nil-check what they keep.
	var durable wal.Durability
	if log != nil {
		durable = log
	}
	switch cfg.Protocol {
	case COPS:
		s, err := cops.NewServer(cops.Config{
			DC: dc, Part: part, NumDCs: cfg.DCs, NumParts: cfg.Partitions,
			MaxVersions: cfg.MaxVersions,
			Durable:     durable,
			Slow:        cfg.Slow,
		}, net)
		if err != nil {
			return nil, err
		}
		return s, nil
	case CCLO:
		s, err := cclo.NewServer(cclo.Config{
			DC: dc, Part: part, NumDCs: cfg.DCs, NumParts: cfg.Partitions,
			GCWindow: cfg.ReaderGCWindow,
			Durable:  durable,
			Slow:     cfg.Slow,
		}, net)
		if err != nil {
			return nil, err
		}
		return s, nil
	case Contrarian, ContrarianTwoRound, Cure:
		clock := families[cfg.Protocol].clock
		if cfg.ClockOverride != nil {
			clock = *cfg.ClockOverride
		}
		s, err := core.NewServer(core.Config{
			DC: dc, Part: part, NumDCs: cfg.DCs, NumParts: cfg.Partitions,
			Clock:         clock,
			Skew:          skew,
			RepFlushEvery: cfg.RepFlushEvery,
			Durable:       durable,
			Slow:          cfg.Slow,
		}, net)
		if err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, fmt.Errorf("cluster: unknown protocol %v", cfg.Protocol)
	}
}

// NewStabilizer builds dc's stabilization service on net; it is not
// Start()ed. Only the Stabilized protocols have one.
func (cfg Config) NewStabilizer(dc int, net transport.Network) (*core.Stabilizer, error) {
	if !cfg.Protocol.Stabilized() {
		return nil, fmt.Errorf("cluster: %v runs no stabilizer", cfg.Protocol)
	}
	return core.NewStabilizer(dc, cfg.Partitions, cfg.DCs, 0, net)
}

// NewClient opens a client of cfg's protocol homed in dc as the logical
// session (tenant, id) on mux, the DC's client endpoint. id must be
// unique per DC (it is the CC-LO rot identity) and in [1, wire.MaxClientID],
// the session id's 16 bits; any other id is an error.
// On error the returned Client is not usable (it may be a typed nil).
func (cfg Config) NewClient(dc, id int, tenant uint16, mux transport.Mux) (Client, error) {
	if id < 1 || id > wire.MaxClientID {
		return nil, fmt.Errorf("cluster: client id %d outside [1, %d]", id, wire.MaxClientID)
	}
	r := ring.New(cfg.Partitions)
	sess := wire.MakeSession(tenant, uint16(id))
	switch cfg.Protocol {
	case COPS:
		return cops.NewSessionClient(cops.ClientConfig{DC: dc, ID: id, Ring: r}, mux, sess)
	case CCLO:
		return cclo.NewSessionClient(cclo.ClientConfig{DC: dc, ID: id, Ring: r}, mux, sess)
	case Contrarian, ContrarianTwoRound, Cure:
		cc := core.ClientConfig{DC: dc, ID: id, NumDCs: cfg.DCs, Ring: r, Mode: families[cfg.Protocol].rot}
		return core.NewSessionClient(cc, mux, sess)
	default:
		return nil, fmt.Errorf("cluster: unknown protocol %v", cfg.Protocol)
	}
}

// CCLOStats sums readers-check counters over every CC-LO server, plus the
// epoch-fence retry counters of every CC-LO session this cluster created.
func (c *Cluster) CCLOStats() cclo.StatsSnapshot {
	sum := cclo.StatsSnapshot{FenceRetries: c.fenceRetries()}
	for _, s := range c.servers {
		lo, ok := s.(*cclo.Server)
		if !ok {
			continue
		}
		snap := lo.Stats().Snapshot()
		sum.Checks += snap.Checks
		sum.KeysChecked += snap.KeysChecked
		sum.PartitionsAsked += snap.PartitionsAsked
		sum.IDsCumulative += snap.IDsCumulative
		sum.IDsDistinct += snap.IDsDistinct
		sum.CheckBytes += snap.CheckBytes
		sum.ReplicationChecks += snap.ReplicationChecks
	}
	return sum
}

// registerFenceRetries exposes the one client-side series only CC-LO has.
func (c *Cluster) registerFenceRetries(r *metrics.Registry, fam metrics.Label) {
	if c.cfg.Protocol != CCLO {
		return
	}
	r.CounterFunc("kv_cclo_fence_retries_total",
		"Client-side epoch-fence ROT retries, summed over all sessions.",
		func() float64 { return float64(c.fenceRetries()) }, fam)
}
