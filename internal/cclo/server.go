package cclo

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/family"
	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config parameterizes one CC-LO partition server.
type Config struct {
	DC       int
	Part     int
	NumDCs   int
	NumParts int

	// GCWindow is how long reader entries live (paper: 500 ms). It also
	// bounds what a chain retains: a version stays until no version at or
	// below it carries a mark younger than the window.
	GCWindow time.Duration

	// Durable, when non-nil, makes every install durable before it is
	// acknowledged (see wal.Durability), and closes CC-LO's crash gap for
	// ROTs in flight at the crash with two durable fences. Invisibility
	// marks are persisted as old-reader records in the same append as the
	// install they protect, so recovery rebuilds per-version rewind state;
	// and every recovery durably bumps the partition's restart epoch, which
	// servers gossip along readers checks and clients use to abort-and-retry
	// a multi-partition ROT that straddled a restart (the reader/old-reader
	// SETS stay soft — the epoch fence is what covers their loss). Both
	// durable footprints are bounded by the GC window.
	Durable wal.Durability

	// Slow, when non-nil, receives a trace record for every handler
	// invocation that exceeds the ring's threshold (shared process-wide;
	// see metrics.SlowRing). Nil disables capture at zero cost.
	Slow *metrics.SlowRing
}

func (c Config) withDefaults() Config {
	if c.NumDCs <= 0 {
		c.NumDCs = 1
	}
	if c.NumParts <= 0 {
		c.NumParts = 1
	}
	if c.GCWindow <= 0 {
		c.GCWindow = 500 * time.Millisecond
	}
	return c
}

// Stats aggregates the readers-check overhead counters behind the paper's
// Figure 6 and the overhead analyses of Sections 5.4–5.6.
type Stats struct {
	Checks            atomic.Uint64 // readers checks performed
	KeysChecked       atomic.Uint64 // dependencies examined
	PartitionsAsked   atomic.Uint64 // remote partitions interrogated
	IDsCumulative     atomic.Uint64 // ROT ids scanned across all answers, before the cross-partition merge
	IDsDistinct       atomic.Uint64 // distinct ROT ids after the merge (one per client)
	CheckBytes        atomic.Uint64 // readers-check response payload bytes, as encoded
	ReplicationChecks atomic.Uint64 // readers checks run for replicated updates
}

// StatsSnapshot is a plain copy of Stats. FenceRetries is client-side
// state (see Client.FenceRetries) aggregated in by the cluster layer; a
// single server's Snapshot always reports it as zero.
type StatsSnapshot struct {
	Checks, KeysChecked, PartitionsAsked   uint64
	IDsCumulative, IDsDistinct, CheckBytes uint64
	ReplicationChecks                      uint64
	FenceRetries                           uint64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Checks:            s.Checks.Load(),
		KeysChecked:       s.KeysChecked.Load(),
		PartitionsAsked:   s.PartitionsAsked.Load(),
		IDsCumulative:     s.IDsCumulative.Load(),
		IDsDistinct:       s.IDsDistinct.Load(),
		CheckBytes:        s.CheckBytes.Load(),
		ReplicationChecks: s.ReplicationChecks.Load(),
	}
}

// Server is one CC-LO partition replica: the dependency-list skeleton
// (clock, commit path, replication, recovery — internal/family) plus what
// latency optimality adds to it — the reader-tracking store, the readers
// check that runs before every commit, and the restart-epoch fence.
type Server struct {
	*family.LoServer
	cfg   Config
	store *loStore
	stats Stats

	// epoch is this partition's restart epoch: 0 for in-memory servers
	// (which cannot restart in place), otherwise bumped durably on every
	// recovery. Fixed after construction. epochVec is the newest epoch this
	// server knows per partition of its DC (own entry authoritative);
	// remote entries advance as readers-check traffic gossips them — the
	// same causal channel a dependent write must cross before it can skip a
	// crashed partition's lost reader records, which is what makes the ROT
	// fence sound (see wire.LoRotResp.Epochs).
	epoch    uint64
	epochMu  sync.Mutex
	epochVec []uint64
}

// NewServer builds the partition server and attaches it to net.
func NewServer(cfg Config, net transport.Network) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		store:    newLoStore(0, cfg.GCWindow, cfg.Durable != nil),
		epochVec: make([]uint64, cfg.NumParts),
	}
	s.LoServer = family.NewLoServer("cclo", cfg.DC, cfg.Part, cfg.NumDCs, cfg.NumParts, cfg.Durable, cfg.Slow,
		family.LoStore{HasVersion: s.store.eng.Has, Install: s.store.installRecord, Snapshot: s.snapshot, Seal: s.store.eng.Seal, Register: s.store.eng.Register})
	s.Expose(s.registerChecks)
	if cfg.Durable != nil {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	if err := s.Attach(net, s.dispatch); err != nil {
		return nil, err
	}
	return s, nil
}

// recover replays the durable log (see family.LoServer.Replay), rebuilds
// per-version invisibility marks from the persisted old-reader records, and
// durably bumps the partition's restart epoch.
func (s *Server) recover() error {
	s.store.replaying = true
	marks, err := s.Replay()
	s.store.replaying = false
	if err != nil {
		return err
	}
	now := time.Now()
	for id, entries := range marks {
		s.store.addMarks(id.Key, id.TS, id.Src, entries, now)
	}
	// Fence this incarnation: the epoch bump must be durable before the
	// server serves anything, or a second crash could resurrect the old
	// epoch and hide this restart from straddling ROTs.
	s.epoch = s.cfg.Durable.Epoch() + 1
	if err := s.cfg.Durable.SetEpoch(s.epoch); err != nil {
		return err
	}
	s.epochVec[s.cfg.Part] = s.epoch
	return nil
}

// snapshot is the WAL snapshot source. Records carry each local version's
// dependency list (the store keeps it alongside the version, see
// loExtra.deps), so a local update that is BOTH unacked by some DC and
// already folded into a snapshot still re-enqueues with its deps — the
// receiving DC's dependency check must never be skipped just because the
// origin compacted its log. Versions at or below every stream's durable ack
// frontier are never re-enqueued, so their deps are omitted to keep
// snapshot growth bounded by the unacked window, not the keyspace. The
// store is iterated lock-free (chains are immutable snapshots), so emission
// — disk I/O — does not stall writers; only the per-key mark collection
// briefly takes the shard lock.
func (s *Server) snapshot(emit func(wal.Record) error) error {
	frontier := s.ackedFrontier()
	snapNow := time.Now()
	var ferr error
	s.store.forEachChain(func(key string, c *loChain) {
		if ferr != nil {
			return
		}
		// Still-live invisibility marks ride along so truncating the
		// segment that held a version's old-reader record cannot strip
		// an in-window ROT of its rewind protection; expired marks are
		// dropped here, which is what bounds the durable footprint to
		// the GC window. Marks live on NON-latest versions too (the
		// rewound ROT's targets), so a key carrying any in-window mark
		// emits its whole retained chain — marks are useless without
		// the versions they hide and the versions they rewind to — while
		// unmarked keys emit only their latest, keeping snapshot growth
		// bounded by the keyspace plus the GC window's marked chains.
		marked := s.store.markedVersions(key, snapNow)
		vs := c.Versions
		if len(marked) == 0 {
			vs = vs[len(vs)-1:]
		}
		for i := range vs {
			v := &vs[i]
			deps := v.Extra.deps
			if v.TS <= frontier {
				deps = nil
			}
			if ferr = emit(wal.Record{Key: key, Value: v.Value, TS: v.TS, SrcDC: v.Src, Deps: deps}); ferr != nil {
				return
			}
		}
		for _, m := range marked {
			if ferr = emit(wal.Record{Kind: wal.RecReaders, Key: key, TS: m.ts, SrcDC: m.src, Readers: m.entries}); ferr != nil {
				return
			}
		}
	})
	return ferr
}

// foldEpochs max-merges a peer's epoch vector into this server's view. The
// own entry is never folded — this partition is the sole authority on its
// epoch, and it is fixed for the life of the incarnation.
func (s *Server) foldEpochs(vec []uint64) {
	if len(vec) == 0 {
		return
	}
	s.epochMu.Lock()
	for i := 0; i < len(vec) && i < len(s.epochVec); i++ {
		if i != s.cfg.Part && vec[i] > s.epochVec[i] {
			s.epochVec[i] = vec[i]
		}
	}
	s.epochMu.Unlock()
}

// epochsView copies the server's current epoch vector for stamping onto a
// response.
func (s *Server) epochsView() []uint64 {
	s.epochMu.Lock()
	out := append([]uint64(nil), s.epochVec...)
	s.epochMu.Unlock()
	return out
}

// ackedFrontier returns the timestamp at or below which every remote DC
// has durably acknowledged this partition's local updates (MaxUint64 with
// no remote DCs). A missing cursor means that DC has acked nothing.
func (s *Server) ackedFrontier() uint64 {
	if s.cfg.NumDCs <= 1 {
		return ^uint64(0)
	}
	frontier := ^uint64(0)
	for dc, high := range family.Acked(s.cfg.Durable, s.cfg.NumDCs) {
		if dc != s.cfg.DC {
			frontier = min(frontier, high)
		}
	}
	return frontier
}

// Stats returns the server's readers-check counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Refusals returns how many ROT legs this server refused because the
// version the ROT had to be served was trimmed.
func (s *Server) Refusals() uint64 { return s.store.eng.Refusals() }

// ForEachLatest visits every key's newest version (tests, convergence
// checks).
func (s *Server) ForEachLatest(fn func(key string, value []byte, ts uint64, srcDC uint8)) {
	s.store.forEachLatest(func(k string, v loVersion) {
		fn(k, v.value, v.ts, v.srcDC)
	})
}

// dispatch is the partition's message switch (see family.Partition.Handle).
func (s *Server) dispatch(src wire.From, reqID uint64, m wire.Message) (family.Op, bool) {
	switch msg := m.(type) {
	case *wire.LoRotReq:
		return s.handleRot(src, reqID, msg), true
	case *wire.LoPutReq:
		return s.handlePut(src, reqID, msg), true
	case *wire.OldReadersReq:
		s.handleOldReaders(src, reqID, msg)
		return family.Op{}, true
	case *wire.LoRepUpdate:
		return s.handleRepUpdate(src, reqID, msg), true
	}
	return family.Op{}, false
}

// handleRot serves CC-LO's one-round read: latest version, or — for a
// recorded old reader — the newest version older than its recorded time. A
// leg with a key whose version was trimmed is refused whole with
// wire.RotRefused; the client retries the ROT under a fresh id.
func (s *Server) handleRot(src wire.From, reqID uint64, m *wire.LoRotReq) family.Op {
	// Fold the session's high-water mark into this partition's clock
	// before assigning read times: per-partition Lamport clocks know
	// nothing of what a session observed elsewhere, and an old-reader
	// entry recorded below the session's past would let a later rewind
	// serve this session versions older than state it already saw.
	s.Clock.Update(m.SeenTS)
	s.foldEpochs(m.Epochs)
	now := time.Now()
	vals := make([]wire.KV, len(m.Keys))
	for i, k := range m.Keys {
		kv, err := s.store.serve(k, m.RotID, s.Clock.Tick(), now)
		if err != nil {
			_ = s.Node.Respond(src, reqID, &wire.RotRefused{RotID: m.RotID})
			return family.Read(m.Keys)
		}
		vals[i] = kv
	}
	// The epoch stamp is taken AFTER the reads: any version these reads
	// observed was installed before the snapshot, so an epoch its readers
	// check carried is already folded in — the client's fence can compare
	// legs without a lost-update window on this side.
	_ = s.Node.Respond(src, reqID, &wire.LoRotResp{Vals: vals, Epochs: s.epochsView()})
	return family.Read(m.Keys)
}

// handlePut runs a client PUT: readers check first, then COPS' commit
// (Figure 2's write path).
func (s *Server) handlePut(src wire.From, reqID uint64, m *wire.LoPutReq) family.Op {
	readers, maxT, err := s.readersCheck(m.Deps, false, nil)
	if err != nil {
		transport.RespondError(s.Node, src, reqID, 500, "cclo: readers check: "+err.Error())
		return family.Op{}
	}
	return s.CommitLocal(src, reqID, m, maxT, readers)
}

// checkScratch is the working memory of one readers check: the merged set
// under construction and the decode buffer for a peer's answer. Pooled, so a
// check allocates only what outlives it.
type checkScratch struct{ out, in slotSet }

var checkScratchPool = sync.Pool{New: func() any { return new(checkScratch) }}

// readersCheck interrogates the partition of every dependency for old
// readers and merges the results, then folds in origin (the old readers a
// replicated update brought from its origin DC). It returns the merged set —
// ordered by client, one ROT per client, owned by the caller, in the form it
// is persisted, installed and shipped — and the highest read time this DC's
// check saw. replicated marks checks run on behalf of a replicated update
// (they are counted separately; §5.4 attributes CC-LO's poor geo-scaling to
// them). Such a check is also the update's dependency check: every partition,
// this one included, collects only once the dependencies it holds are
// installed, and a shutdown that cuts the wait short fails the check.
func (s *Server) readersCheck(deps []wire.LoDep, replicated bool, origin []wire.ReaderEntry) ([]wire.ReaderEntry, uint64, error) {
	s.stats.Checks.Add(1)
	if replicated {
		s.stats.ReplicationChecks.Add(1)
	}
	s.stats.KeysChecked.Add(uint64(len(deps)))
	if len(deps) == 0 && len(origin) == 0 {
		return nil, 0, nil
	}
	sc := checkScratchPool.Get().(*checkScratch)
	out := sc.out[:0]
	defer func() {
		sc.out = out
		checkScratchPool.Put(sc)
	}()
	var scanned int

	// The check is one Fan round over the dependencies split by owner.
	// Remote partitions are interrogated in parallel; our own share leads,
	// so it is collected on this goroutine with a direct store access. Every
	// response carries the responder's epoch vector, folded into ours before
	// this check returns — i.e. before the version being checked installs —
	// which is the propagation that lets ROT legs expose a restart to the
	// client fence.
	shares := ring.Split(s.Ring, deps, func(d wire.LoDep) string { return d.Key }, s.cfg.Part)
	reqEpochs := s.epochsView()
	ctx, cancel := context.WithTimeout(context.Background(), family.CallTimeout)
	defer cancel()
	err := family.Fan(ctx, len(shares), func(ctx context.Context, i int) (*wire.OldReadersResp, error) {
		sh := shares[i]
		if sh.Part != s.cfg.Part {
			s.stats.PartitionsAsked.Add(1)
			return family.As[*wire.OldReadersResp](s.Node.Call(ctx, wire.ServerAddr(s.cfg.DC, sh.Part),
				&wire.OldReadersReq{Deps: sh.Items, Epochs: reqEpochs, Await: replicated}))
		}
		if replicated {
			if err := s.AwaitInstalled(sh.Items); err != nil {
				return nil, err
			}
		}
		var n int
		out, n = s.collectDeps(sh.Items, time.Now(), out)
		scanned += n
		return nil, nil // collected in place
	}, func(_ int, a *wire.OldReadersResp) error {
		if a != nil {
			s.foldEpochs(a.Epochs)
			scanned += int(a.Cumulative)
			s.stats.CheckBytes.Add(uint64(wire.ReadersSize(a.Readers)))
			sc.in = slotsFromWire(sc.in, a.Readers)
			out = out.absorb(sc.in, anyVTS)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	s.stats.IDsCumulative.Add(uint64(scanned))
	s.stats.IDsDistinct.Add(uint64(len(out)))
	var maxT uint64
	for _, e := range out {
		maxT = max(maxT, e.t)
	}
	if len(origin) > 0 {
		sc.in = slotsFromWire(sc.in, origin)
		out = out.absorb(sc.in, anyVTS)
	}
	return wireReaders(out), maxT, nil
}

// collectDeps is the responder side of a readers check: the old readers of
// every listed dependency (all keys of this partition) merged into out.
func (s *Server) collectDeps(deps []wire.LoDep, now time.Time, out slotSet) (slotSet, int) {
	scanned := 0
	for _, d := range deps {
		var n int
		out, n = s.store.collectOldReaders(d.Key, d.TS, now, out)
		scanned += n
	}
	return out, scanned
}

// handleOldReaders answers a readers check for dependencies on this
// partition's keys — for a replicated update's check (Await), only once
// every one of them is installed here. A shutdown that cuts that wait short
// answers an error, never a check that would let the update install ahead of
// its dependency.
func (s *Server) handleOldReaders(src wire.From, reqID uint64, m *wire.OldReadersReq) {
	s.foldEpochs(m.Epochs)
	if m.Await {
		if err := s.AwaitInstalled(m.Deps); err != nil {
			transport.RespondError(s.Node, src, reqID, 503, "cclo: readers check: "+err.Error())
			return
		}
	}
	sc := checkScratchPool.Get().(*checkScratch)
	out, scanned := s.collectDeps(m.Deps, time.Now(), sc.out[:0])
	// Receiving the check updates our Lamport clock with nothing (the
	// times flow the other way); the response carries our entries' times
	// plus our epoch vector (our own entry says which incarnation answered
	// — the whole point of the fence).
	_ = s.Node.Respond(src, reqID, &wire.OldReadersResp{
		Readers:    wireReaders(out),
		Cumulative: uint32(scanned),
		Epochs:     s.epochsView(),
	})
	sc.out = out
	checkScratchPool.Put(sc)
}

// handleRepUpdate installs a replicated update: a readers check in this DC
// merged with the origin's old readers, then COPS' commit. §3 ("Challenges
// of geo-replication") runs a dependency check and then a readers check, two
// rounds to the same partitions; here the readers check is the dependency
// check too (see readersCheck), and CC-LO sends no dependency check of its
// own. The install record carries no dependency list: only locally
// originated versions are ever re-enqueued.
func (s *Server) handleRepUpdate(src wire.From, reqID uint64, m *wire.LoRepUpdate) family.Op {
	if !s.FromPeer(src, reqID, m.SrcDC) {
		return family.Op{}
	}
	readers, maxT, err := s.readersCheck(m.Deps, true, m.OldReaders)
	if err != nil {
		transport.RespondError(s.Node, src, reqID, 500, "cclo: readers check: "+err.Error())
		return family.Op{}
	}
	return s.CommitRemote(src, reqID, m,
		wal.Record{Key: m.Key, Value: m.Value, TS: m.TS, SrcDC: m.SrcDC}, maxT, readers)
}
