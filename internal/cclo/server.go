package cclo

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/family"
	"repro/internal/hlc"
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

	// GCWindow is how long reader entries live (paper: 500 ms).
	GCWindow time.Duration
	// MaxVersions caps per-key version chains.
	MaxVersions int
	// StoreShards is the storage engine shard count (0 = auto from
	// GOMAXPROCS; see internal/store).
	StoreShards int

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

// Server is one CC-LO partition replica.
type Server struct {
	cfg   Config
	clock *hlc.Lamport
	store *loStore
	node  transport.Node
	ring  ring.Ring
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

	// The shared skeleton (internal/family).
	deps    *family.DepWaiter
	repl    *family.WindowReplicator
	repAges *family.RepAges

	// Observability (obs.go): per-op latency histograms and the
	// process-wide slow-op trace ring (nil-safe).
	ops  metrics.OpHists
	slow *metrics.SlowRing
}

// NewServer builds the partition server and attaches it to net.
func NewServer(cfg Config, net transport.Network) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		clock:    hlc.NewLamport(0),
		store:    newLoStore(cfg.MaxVersions, cfg.StoreShards, cfg.GCWindow),
		ring:     ring.New(cfg.NumParts),
		epochVec: make([]uint64, cfg.NumParts),
		repAges:  family.NewRepAges(cfg.NumDCs),
		slow:     cfg.Slow,
	}
	var recovered []*wire.LoRepUpdate
	if cfg.Durable != nil {
		var err error
		if recovered, err = s.recover(); err != nil {
			return nil, err
		}
	}
	// Dispatch stays gated until the waiter and the replicator exist: the
	// first PUT to arrive enqueues into the streams.
	node, open, err := family.Attach(net, wire.ServerAddr(cfg.DC, cfg.Part), s)
	if err != nil {
		return nil, err
	}
	s.node = node
	s.deps = family.NewDepWaiter(node, cfg.DC, cfg.Part, s.ring, s.store.hasVersion)
	s.repl = family.NewWindowReplicator(node, cfg.DC, cfg.Part, cfg.NumDCs, cfg.Durable, recovered)
	open()
	return s, nil
}

// recover replays the durable log into the store, rebuilds per-version
// invisibility marks from persisted old-reader records, durably bumps the
// partition's restart epoch, advances the Lamport clock past every
// recovered timestamp (so new writes order above acknowledged ones), and
// registers the snapshot source. It returns the recovered LOCAL updates —
// dependency lists and recovered old readers included — in timestamp order
// for the replicator's re-enqueue.
func (s *Server) recover() ([]*wire.LoRepUpdate, error) {
	now := time.Now()
	var maxTS uint64
	var local []*wire.LoRepUpdate
	// verID names a recovered version for mark rebuilding: reader records
	// may replay before their install (snapshots) or after a duplicate of
	// it (re-delivered updates), so marks are accumulated here and applied
	// once the full replay has settled the version chains.
	type verID struct {
		key string
		ts  uint64
		src uint8
	}
	marks := make(map[verID][]wire.ReaderEntry)
	err := s.cfg.Durable.Replay(func(rec wal.Record) error {
		if rec.Kind == wal.RecReaders {
			id := verID{key: rec.Key, ts: rec.TS, src: rec.SrcDC}
			marks[id] = append(marks[id], rec.Readers...)
			return nil
		}
		// Local versions keep their dependency lists in the store so the
		// next snapshot re-emits them (see loVersion.deps).
		var deps []wire.LoDep
		if int(rec.SrcDC) == s.cfg.DC {
			deps = rec.Deps
		}
		s.store.install(rec.Key, loVersion{value: rec.Value, ts: rec.TS, srcDC: rec.SrcDC, deps: deps}, nil, now)
		maxTS = max(maxTS, rec.TS)
		if int(rec.SrcDC) == s.cfg.DC {
			local = append(local, &wire.LoRepUpdate{
				SrcDC:   rec.SrcDC,
				SrcPart: uint32(s.cfg.Part),
				Key:     rec.Key,
				Value:   rec.Value,
				TS:      rec.TS,
				Deps:    rec.Deps,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, entries := range marks {
		s.store.addMarks(id.key, id.ts, id.src, entries, now)
	}
	// Re-enqueued local updates carry their recovered old readers, exactly
	// as the pre-crash enqueue did: the receiving DC merges them into its
	// own readers check before installing.
	for _, u := range local {
		if entries := marks[verID{key: u.Key, ts: u.TS, src: u.SrcDC}]; len(entries) > 0 {
			u.OldReaders = entries
		}
	}
	sort.Slice(local, func(i, j int) bool { return local[i].TS < local[j].TS })
	if maxTS > 0 {
		s.clock.Update(maxTS)
	}
	// Fence this incarnation: the epoch bump must be durable before the
	// server serves anything, or a second crash could resurrect the old
	// epoch and hide this restart from straddling ROTs.
	s.epoch = s.cfg.Durable.Epoch() + 1
	if err := s.cfg.Durable.SetEpoch(s.epoch); err != nil {
		return nil, err
	}
	s.epochVec[s.cfg.Part] = s.epoch
	// Snapshot records carry each local version's dependency list (the
	// store keeps it alongside the version, see loVersion.deps), so a local
	// update that is BOTH unacked by some DC and already folded into a
	// snapshot still re-enqueues with its deps — the receiving DC's
	// dependency check must never be skipped just because the origin
	// compacted its log. Versions at or below every stream's durable ack
	// frontier are never re-enqueued, so their deps are omitted to keep
	// snapshot growth bounded by the unacked window, not the keyspace.
	// The source iterates the store lock-free (chains are immutable
	// snapshots), so emission — disk I/O — no longer stalls writers; only
	// the per-key mark collection briefly takes the shard lock.
	s.cfg.Durable.SetSnapshotSource(func(emit func(wal.Record) error) error {
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
	})
	return local, nil
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
	byDC := make(map[uint8]uint64)
	for _, c := range s.cfg.Durable.Cursors() {
		byDC[c.DstDC] = c.HighTS
	}
	frontier := ^uint64(0)
	for dc := 0; dc < s.cfg.NumDCs; dc++ {
		if dc == s.cfg.DC {
			continue
		}
		frontier = min(frontier, byDC[uint8(dc)])
	}
	return frontier
}

// Addr returns the server's wire address.
func (s *Server) Addr() wire.Addr { return s.node.Addr() }

// Stats returns the server's readers-check counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Preload installs an initial version (ts 1, DC 0) of each key directly,
// bypassing the protocol; used by benchmarks to stand up the data set.
func (s *Server) Preload(keys []string, val []byte) {
	now := time.Now()
	for _, k := range keys {
		s.store.install(k, loVersion{value: val, ts: 1, srcDC: 0}, nil, now)
	}
	s.clock.Update(1)
}

// ForEachLatest visits every key's newest version (tests, convergence
// checks).
func (s *Server) ForEachLatest(fn func(key string, value []byte, ts uint64, srcDC uint8)) {
	s.store.forEachLatest(func(k string, v loVersion) {
		fn(k, v.value, v.ts, v.srcDC)
	})
}

// Start launches replication streams.
func (s *Server) Start() { s.repl.Start() }

// Close stops background work and detaches from the network.
func (s *Server) Close() error {
	s.repl.Stop()
	s.deps.Stop()
	return s.node.Close()
}

// Handle dispatches one incoming message.
func (s *Server) Handle(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
	switch msg := m.(type) {
	case *wire.LoRotReq:
		s.handleRot(src, reqID, msg)
	case *wire.LoPutReq:
		s.handlePut(src, reqID, msg)
	case *wire.OldReadersReq:
		s.handleOldReaders(src, reqID, msg)
	case *wire.LoRepUpdate:
		s.handleRepUpdate(src, reqID, msg)
	case *wire.DepCheckReq:
		s.deps.HandleDepCheck(src, reqID, msg)
	case *wire.Ping:
		_ = n.Respond(src, reqID, &wire.Pong{Nonce: msg.Nonce})
	default:
		if reqID != 0 {
			transport.RespondError(n, src, reqID, 400, "cclo: unexpected message")
		}
	}
}

// handleRot serves CC-LO's one-round read: latest version, or — for a
// recorded old reader — the newest version older than its recorded time.
func (s *Server) handleRot(src wire.From, reqID uint64, m *wire.LoRotReq) {
	start := time.Now()
	defer func() {
		total := time.Since(start)
		s.ops.ReadHist(len(m.Keys)).Record(total)
		var kh uint64
		if len(m.Keys) > 0 {
			kh = metrics.KeyHash(m.Keys[0])
		}
		op := "rot"
		if len(m.Keys) == 1 {
			op = "get"
		}
		s.slow.Record(metrics.SlowOp{
			Start: start.UnixNano(), Op: op, KeyHash: kh, Total: total,
		})
	}()
	// Fold the session's high-water mark into this partition's clock
	// before assigning read times: per-partition Lamport clocks know
	// nothing of what a session observed elsewhere, and an old-reader
	// entry recorded below the session's past would let a later rewind
	// serve this session versions older than state it already saw.
	s.clock.Update(m.SeenTS)
	s.foldEpochs(m.Epochs)
	now := time.Now()
	vals := make([]wire.KV, len(m.Keys))
	for i, k := range m.Keys {
		t := s.clock.Tick()
		val, ts, src, ok := s.store.read(k, m.RotID, t, now)
		if ok {
			vals[i] = wire.KV{Key: k, Value: val, TS: ts, Src: src}
		} else {
			vals[i] = wire.KV{Key: k}
		}
	}
	// The epoch stamp is taken AFTER the reads: any version these reads
	// observed was installed before the snapshot, so an epoch its readers
	// check carried is already folded in — the client's fence can compare
	// legs without a lost-update window on this side.
	_ = s.node.Respond(src, reqID, &wire.LoRotResp{Vals: vals, Epochs: s.epochsView()})
}

// handlePut runs a client PUT: readers check first, then install, then
// replicate (Figure 2's write path).
func (s *Server) handlePut(src wire.From, reqID uint64, m *wire.LoPutReq) {
	start := time.Now()
	var checkDur, fsyncDur time.Duration
	defer func() {
		total := time.Since(start)
		s.ops.Put.Record(total)
		s.slow.Record(metrics.SlowOp{
			Start: start.UnixNano(), Op: "put", KeyHash: metrics.KeyHash(m.Key),
			Total: total, Queue: checkDur, Fsync: fsyncDur,
		})
	}()
	collected, maxT, err := s.readersCheck(m.Deps, false, nil)
	checkDur = time.Since(start)
	if err != nil {
		transport.RespondError(s.node, src, reqID, 500, "cclo: readers check: "+err.Error())
		return
	}
	// The new version's timestamp must exceed every dependency timestamp
	// and every collected read time, so that "old" is well defined.
	high := maxT
	for _, d := range m.Deps {
		high = max(high, d.TS)
	}
	ts := s.clock.Update(high)
	// Tracked BEFORE the append (see WindowReplicator.Track).
	s.repl.Track(ts)
	// Durability gates VISIBILITY, not just the acknowledgment: the fsync
	// runs before the install, so no read or dependency check can ever
	// observe a version a crash could still take back. A dep check passing
	// on an un-fsynced version would permanently unblock dependents in
	// other DCs that recovery can never satisfy again. The same order
	// keeps replication honest (never ship what the origin could lose; the
	// enqueue-after-durable order also keeps same-partition dependencies
	// launching no later than their dependents), and the dependency list
	// is persisted with the install so a crash-recovered re-enqueue still
	// carries it.
	oldReaders := wireReaders(collected)
	if s.cfg.Durable != nil {
		recs := installRecords(wal.Record{
			Key: m.Key, Value: m.Value, TS: ts, SrcDC: uint8(s.cfg.DC), Deps: m.Deps,
		}, oldReaders)
		fs := time.Now()
		err := wal.AppendAndSync(s.cfg.Durable, recs)
		fsyncDur = time.Since(fs)
		if err != nil {
			transport.RespondError(s.node, src, reqID, 500, "cclo: wal: "+err.Error())
			return
		}
	}
	s.install(m.Key, loVersion{value: m.Value, ts: ts, srcDC: uint8(s.cfg.DC), deps: m.Deps}, collected)
	s.repl.Enqueue(&wire.LoRepUpdate{
		SrcDC:      uint8(s.cfg.DC),
		SrcPart:    uint32(s.cfg.Part),
		Key:        m.Key,
		Value:      m.Value,
		TS:         ts,
		Deps:       m.Deps,
		OldReaders: oldReaders,
	})
	_ = s.node.Respond(src, reqID, &wire.LoPutResp{TS: ts})
}

// installRecords pairs an install record with the old-reader record
// persisting its invisibility marks (when it has any). The reader record
// goes FIRST: the two land in one group commit, but a real crash can still
// tear the batch's unfsynced tail, and a torn reader record behind a
// surviving install would resurrect the version without its rewind
// protection — the exact bug this PR closes. Torn the other way round, the
// version is lost too and the orphaned marks are dropped at recovery.
func installRecords(install wal.Record, oldReaders []wire.ReaderEntry) []wal.Record {
	if len(oldReaders) == 0 {
		return []wal.Record{install}
	}
	return []wal.Record{
		{Kind: wal.RecReaders, Key: install.Key, TS: install.TS, SrcDC: install.SrcDC, Readers: oldReaders},
		install,
	}
}

// install writes the version (the store takes ownership of collected) and
// wakes dependency checks.
func (s *Server) install(key string, v loVersion, collected slotSet) {
	s.store.install(key, v, collected, time.Now())
	s.deps.Installed()
}

// checkScratch is the working memory of one readers check: the merged set
// under construction and the decode buffer for a peer's answer. Pooled, so a
// check allocates only what outlives it.
type checkScratch struct{ out, in slotSet }

var checkScratchPool = sync.Pool{New: func() any { return new(checkScratch) }}

// partDeps is the share of a readers check addressed to one partition.
type partDeps struct {
	part int
	deps []wire.LoDep
}

// oldReadersAnswer is one remote partition's reply to a readers check.
type oldReadersAnswer struct {
	resp *wire.OldReadersResp
	err  error
}

// askOldReaders runs the remote leg of a readers check against one partition.
func (s *Server) askOldReaders(g partDeps, epochs []uint64) oldReadersAnswer {
	ctx, cancel := context.WithTimeout(context.Background(), family.CallTimeout)
	defer cancel()
	resp, err := s.node.Call(ctx, wire.ServerAddr(s.cfg.DC, g.part), &wire.OldReadersReq{Deps: g.deps, Epochs: epochs})
	if err != nil {
		return oldReadersAnswer{err: err}
	}
	or, ok := resp.(*wire.OldReadersResp)
	if !ok {
		return oldReadersAnswer{err: wire.ErrUnknownType}
	}
	return oldReadersAnswer{resp: or}
}

// readersCheck interrogates the partition of every dependency for old
// readers and merges the results, then folds in origin (the old readers a
// replicated update brought from its origin DC). It returns the merged set —
// ordered by client, one ROT per client, owned by the caller — and the
// highest read time this DC's check saw. replicated marks checks run on
// behalf of a replicated update (they are counted separately; §5.4
// attributes CC-LO's poor geo-scaling to them).
func (s *Server) readersCheck(deps []wire.LoDep, replicated bool, origin []wire.ReaderEntry) (slotSet, uint64, error) {
	s.stats.Checks.Add(1)
	if replicated {
		s.stats.ReplicationChecks.Add(1)
	}
	s.stats.KeysChecked.Add(uint64(len(deps)))
	if len(deps) == 0 && len(origin) == 0 {
		return nil, 0, nil
	}
	now := time.Now()
	sc := checkScratchPool.Get().(*checkScratch)
	out := sc.out[:0]
	defer func() {
		sc.out = out
		checkScratchPool.Put(sc)
	}()
	var scanned int

	// Dependencies are grouped by owning partition. Our own are checked with
	// a direct store access; remote partitions are interrogated in parallel.
	// Every response carries the responder's epoch vector, folded into ours
	// before this check returns — i.e. before the version being checked
	// installs — which is the propagation that lets ROT legs expose a restart
	// to the client fence.
	var groups []partDeps
next:
	for _, d := range deps {
		p := s.ring.Owner(d.Key)
		for i := range groups {
			if groups[i].part == p {
				groups[i].deps = append(groups[i].deps, d)
				continue next
			}
		}
		groups = append(groups, partDeps{part: p, deps: []wire.LoDep{d}})
	}
	remote := 0
	ch := make(chan oldReadersAnswer, len(groups))
	reqEpochs := s.epochsView()
	for _, g := range groups {
		if g.part == s.cfg.Part {
			var n int
			out, n = s.collectDeps(g.deps, now, out)
			scanned += n
			continue
		}
		remote++
		go func() { ch <- s.askOldReaders(g, reqEpochs) }()
	}
	s.stats.PartitionsAsked.Add(uint64(remote))
	var firstErr error
	for range remote {
		a := <-ch
		if a.err != nil {
			if firstErr == nil {
				firstErr = a.err
			}
			continue
		}
		s.foldEpochs(a.resp.Epochs)
		scanned += int(a.resp.Cumulative)
		s.stats.CheckBytes.Add(uint64(wire.ReadersSize(a.resp.Readers)))
		sc.in = slotsFromWire(sc.in, a.resp.Readers)
		out = out.absorb(sc.in, anyVTS)
	}
	if firstErr != nil {
		return nil, 0, firstErr
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
	return slices.Clone(out), maxT, nil
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
// partition's keys.
func (s *Server) handleOldReaders(src wire.From, reqID uint64, m *wire.OldReadersReq) {
	s.foldEpochs(m.Epochs)
	sc := checkScratchPool.Get().(*checkScratch)
	out, scanned := s.collectDeps(m.Deps, time.Now(), sc.out[:0])
	// Receiving the check updates our Lamport clock with nothing (the
	// times flow the other way); the response carries our entries' times
	// plus our epoch vector (our own entry says which incarnation answered
	// — the whole point of the fence).
	_ = s.node.Respond(src, reqID, &wire.OldReadersResp{
		Readers:    wireReaders(out),
		Cumulative: uint32(scanned),
		Epochs:     s.epochsView(),
	})
	sc.out = out
	checkScratchPool.Put(sc)
}

// handleRepUpdate installs a replicated update: dependency check, then a
// readers check in this DC, then install (§3, "Challenges of
// geo-replication"; the two checks are the combined protocol).
func (s *Server) handleRepUpdate(src wire.From, reqID uint64, m *wire.LoRepUpdate) {
	start := time.Now()
	var checkDur, fsyncDur time.Duration
	defer func() {
		s.repAges.Note(int(m.SrcDC))
		total := time.Since(start)
		s.ops.Rep.Record(total)
		s.slow.Record(metrics.SlowOp{
			Start: start.UnixNano(), Op: "rep", KeyHash: metrics.KeyHash(m.Key),
			Total: total, Queue: checkDur, Fsync: fsyncDur,
		})
	}()
	// 1. Dependency check: every dependency must be installed in this DC;
	// a failed or aborted check withholds the install and the ack.
	if err := s.deps.WaitAll(m.Deps); err != nil {
		transport.RespondError(s.node, src, reqID, 500, "cclo: dep check: "+err.Error())
		return
	}

	// 2. Readers check in this DC, merged with the origin's old readers.
	collected, maxT, err := s.readersCheck(m.Deps, true, m.OldReaders)
	checkDur = time.Since(start)
	if err != nil {
		transport.RespondError(s.node, src, reqID, 500, "cclo: readers check: "+err.Error())
		return
	}
	// 3. Durability before visibility AND before the ack, waiting for the
	// real fsync even in background-sync mode: an install visible to reads
	// or dependency checks before its fsync could be taken back by a
	// crash after dependents elsewhere already cleared their checks, and
	// the ack advances the origin's durable cursor, after which this
	// update is never re-sent. An unacked update is retried (idempotently)
	// by the origin.
	s.clock.Update(max(m.TS, maxT))
	if s.cfg.Durable != nil {
		recs := installRecords(wal.Record{
			Key: m.Key, Value: m.Value, TS: m.TS, SrcDC: m.SrcDC,
		}, wireReaders(collected))
		fs := time.Now()
		err := wal.AppendAndSync(s.cfg.Durable, recs)
		fsyncDur = time.Since(fs)
		if err != nil {
			transport.RespondError(s.node, src, reqID, 500, "cclo: wal: "+err.Error())
			return
		}
	}
	// 4. Install with the origin timestamp; Lamport clocks stay related.
	s.install(m.Key, loVersion{value: m.Value, ts: m.TS, srcDC: m.SrcDC}, collected)
	_ = s.node.Respond(src, reqID, &wire.LoRepAck{Seq: m.Seq})
}
