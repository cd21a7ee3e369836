package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/family"
	"repro/internal/hlc"
	"repro/internal/mvstore"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Server is one partition replica of the timestamp-based engine: the
// shared partition skeleton (family.Partition) plus what the timestamp
// families add to it — the put fence, the durability gate, the batch-cut
// replication stream and the stabilized snapshot.
type Server struct {
	*family.Partition
	cfg   Config
	clock hlc.Clock
	store *mvstore.Store
	repl  *replicator

	mu     sync.RWMutex
	vv     vclock.Vec // vv[i], i ≠ local: latest ts received from DC i's replica
	gss    vclock.Vec // latest Global Stable Snapshot broadcast
	nextIn []uint64   // next expected replication sequence, per source DC
	// past holds the GSS after each of the last frontierLag broadcasts, a
	// ring indexed by rounds mod frontierLag: the entry a broadcast
	// overwrites is the GSS frontierLag rounds ago, the store's trim
	// frontier.
	past   [frontierLag]vclock.Vec
	rounds int

	// putMu is the partition's ordering fence. A PUT assigns its timestamp,
	// installs, and enqueues for replication inside the write lock; snapshot
	// reads take the read lock after moving the clock to the snapshot, and
	// the replicator drains its queue and reads the replication cut inside
	// the write lock. This guarantees two protocol invariants:
	//   1. after a reader moves the clock to SV[local], every version with
	//      ts ≤ SV[local] that will ever exist is already installed;
	//   2. a replication batch's HighTS never runs ahead of an update that
	//      has not been enqueued yet.
	putMu sync.RWMutex

	// durGate tracks local puts whose fsync is still pending, so snapshot
	// reads can refuse to serve a version a crash could take back (nil
	// without a WAL). Local installs must stay inside the put fence
	// (invariant 1 above), so unlike the lo-families core cannot simply
	// install after the fsync — instead the read path waits out the
	// sub-millisecond gap between install and group commit.
	durGate *durGate

	stop chan struct{}
	wg   sync.WaitGroup
}

// durGate is the read-side durability watermark: pending holds the
// timestamps of local puts between install and fsync, in assignment order
// (timestamps are ticked inside the put fence, so adds are sorted).
// Completions arrive in WAL order, which may differ, hence the lazy
// deletion. Readers block while any pending timestamp is inside their
// snapshot.
type durGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []uint64
	inGate  map[uint64]bool // membership of pending, for idempotent complete
	fin     map[uint64]bool
	closed  bool
}

func newDurGate() *durGate {
	g := &durGate{inGate: make(map[uint64]bool), fin: make(map[uint64]bool)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// add registers a just-installed, not-yet-durable local put. Callers hold
// the put fence, so timestamps arrive in increasing order.
func (g *durGate) add(ts uint64) {
	g.mu.Lock()
	g.pending = append(g.pending, ts)
	g.inGate[ts] = true
	g.mu.Unlock()
}

// complete marks ts durable (or abandoned — a poisoned log must not pin
// readers forever) and releases any waiters it unblocks. Idempotent: the
// WAL may both fire the synced callback with an error AND return the error
// from AppendSynced, so a timestamp can be completed twice.
func (g *durGate) complete(ts uint64) {
	g.mu.Lock()
	if !g.inGate[ts] {
		g.mu.Unlock()
		return
	}
	g.fin[ts] = true
	for len(g.pending) > 0 && g.fin[g.pending[0]] {
		delete(g.fin, g.pending[0])
		delete(g.inGate, g.pending[0])
		g.pending = g.pending[1:]
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// waitClear blocks until no pending put has a timestamp ≤ ts (or the gate
// closes with the server).
func (g *durGate) waitClear(ts uint64) {
	g.mu.Lock()
	for !g.closed && len(g.pending) > 0 && g.pending[0] <= ts {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// clearBelow reports, without blocking, whether no pending put has a
// timestamp ≤ ts.
func (g *durGate) clearBelow(ts uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed || len(g.pending) == 0 || g.pending[0] > ts
}

// close releases all waiters permanently (server shutdown).
func (g *durGate) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// NewServer builds the partition server and attaches it to net. Call Start
// to begin background replication and VV reporting, and Close to stop.
func NewServer(cfg Config, net transport.Network) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		clock: cfg.newClock(),
		store: mvstore.New(),
		vv:    vclock.New(cfg.NumDCs),
		gss:   vclock.New(cfg.NumDCs),
		stop:  make(chan struct{}),
	}
	s.nextIn = make([]uint64, cfg.NumDCs)
	for i := range s.nextIn {
		s.nextIn[i] = 1
	}
	s.Partition = family.NewPartition("core", cfg.DC, cfg.NumDCs, cfg.Slow, s.store.Register)
	if cfg.Clock != ClockLogical {
		s.Expose(s.registerLags)
	}
	var recovered []wire.Update
	if cfg.Durable != nil {
		s.durGate = newDurGate()
		var err error
		if recovered, err = s.recover(); err != nil {
			return nil, err
		}
	}
	// The replicator must exist before the server is reachable: the first
	// PUT to arrive enqueues into its streams.
	s.repl = newReplicator(s, recovered)
	open, err := s.Attach(net, wire.ServerAddr(cfg.DC, cfg.Part), s.dispatch)
	if err != nil {
		return nil, err
	}
	open()
	return s, nil
}

// recover replays the durable log into the store and prepares snapshots.
// It runs before the server attaches to the network, so no locks are
// needed. The clock is advanced past the highest recovered timestamp so new
// PUTs can never be assigned timestamps the last-writer-wins order would
// place below already-acknowledged versions (with a physical clock — Cure —
// this Update waits out the apparent skew, exactly as it does for remote
// timestamps). Remote VV entries are rebuilt from recovered installs: a
// replication stream is logged in receipt order, so the highest recovered
// timestamp from a DC understates — never overstates — what was received,
// which is the safe direction for the GSS.
//
// It returns the recovered LOCAL updates in timestamp order: the
// replicator re-enqueues the suffix each remote DC has not acknowledged
// (per the durable cursors), closing the gap between a write surviving the
// crash locally and it ever reaching the other DCs.
func (s *Server) recover() ([]wire.Update, error) {
	var maxTS uint64
	var local []wire.Update
	err := s.cfg.Durable.Replay(func(rec wal.Record) error {
		s.store.Install(rec.Key, mvstore.Version{
			Value: rec.Value, TS: rec.TS, SrcDC: rec.SrcDC, DV: rec.DV,
		})
		maxTS = max(maxTS, rec.TS)
		if dc := int(rec.SrcDC); dc != s.cfg.DC && dc < len(s.vv) && rec.TS > s.vv[dc] {
			s.vv[dc] = rec.TS
		}
		if int(rec.SrcDC) == s.cfg.DC {
			local = append(local, wire.Update{Key: rec.Key, Value: rec.Value, TS: rec.TS, DV: rec.DV})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Replay order is append order, which group commit may leave slightly
	// off timestamp order; the replication cut assumes its queue is
	// timestamp-sorted.
	sort.Slice(local, func(i, j int) bool { return local[i].TS < local[j].TS })
	if maxTS > 0 {
		s.clock.Update(maxTS)
	}
	s.cfg.Durable.SetSnapshotSource(func(emit func(wal.Record) error) error {
		var ferr error
		s.store.ForEachLatest(func(key string, v mvstore.Version) {
			if ferr != nil {
				return
			}
			ferr = emit(wal.Record{Key: key, Value: v.Value, TS: v.TS, SrcDC: v.SrcDC, DV: v.DV})
		})
		return ferr
	})
	return local, nil
}

// logInstall makes one local install durable per the WAL's sync mode; it
// must be called outside the put fence (fsync latency must not serialize
// the partition) and before the acknowledgment. The durable gate flips only
// on the real fsync — under background sync the client may be acked inside
// the loss window, but replication never ships a version the origin could
// still lose. On error the version stays in memory unacknowledged, which a
// crash is allowed to lose.
func (s *Server) logInstall(key string, value []byte, ts uint64, dv vclock.Vec, durable *atomic.Bool) error {
	err := s.cfg.Durable.AppendSynced([]wal.Record{{
		Key: key, Value: value, TS: ts, SrcDC: uint8(s.cfg.DC), DV: dv,
	}}, func(err error) {
		if err == nil {
			durable.Store(true)
		}
		// Unpin readers even on failure: the log is poisoned and the
		// version will never replicate, but a frozen read path on top of a
		// dying partition helps no one.
		s.durGate.complete(ts)
	})
	if err != nil {
		s.durGate.complete(ts)
	}
	return err
}

// Store exposes the underlying storage for tests and convergence checks.
func (s *Server) Store() *mvstore.Store { return s.store }

// Preload installs an initial version (ts 1, DC 0, depending on nothing,
// so visible in any snapshot) of each key directly, bypassing the
// protocol; used by benchmarks to stand up the data set.
func (s *Server) Preload(keys []string, val []byte) {
	dv := vclock.New(s.cfg.NumDCs)
	dv[0] = 1
	for _, k := range keys {
		s.store.Install(k, mvstore.Version{Value: val, TS: 1, DV: dv})
	}
}

// ForEachLatest visits every key's newest version (tests, convergence
// checks).
func (s *Server) ForEachLatest(fn func(key string, value []byte, ts uint64, srcDC uint8)) {
	s.store.ForEachLatest(func(k string, v mvstore.Version) {
		fn(k, v.Value, v.TS, v.SrcDC)
	})
}

// NextIn exposes the replication dedup cursor for dc (tests: a restarted
// sender must resume exactly at the receiver's cursor).
func (s *Server) NextIn(dc int) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if dc < 0 || dc >= len(s.nextIn) {
		return 0
	}
	return s.nextIn[dc]
}

// Start launches replication streams and the VV reporting loop.
func (s *Server) Start() {
	s.repl.start()
	s.wg.Add(1)
	go s.reportLoop()
}

// Close stops background work and detaches from the network.
func (s *Server) Close() error {
	close(s.stop)
	if s.durGate != nil {
		s.durGate.close()
	}
	s.repl.stopAll()
	s.wg.Wait()
	return s.Node.Close()
}

// dispatch is the partition's message switch (see family.Partition.Handle).
func (s *Server) dispatch(src wire.From, reqID uint64, m wire.Message) (family.Op, bool) {
	switch msg := m.(type) {
	case *wire.PutReq:
		return s.handlePut(src, reqID, msg), true
	case *wire.RotCoordReq:
		return s.handleRotCoord(src, reqID, msg), true
	case *wire.RotFwd:
		return s.handleRotFwd(msg), true
	case *wire.RotReadReq:
		return s.handleRotRead(src, reqID, msg), true
	case *wire.RepBatch:
		return s.handleRepBatch(src, reqID, msg), true
	case *wire.GSSBcast:
		s.applyGSS(msg.GSS)
		return family.Op{}, true
	}
	return family.Op{}, false
}

// gssSnapshot returns a copy of the current GSS.
func (s *Server) gssSnapshot() vclock.Vec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gss.Clone()
}

// frontierLag is how many GSS broadcasts the store's trim frontier trails
// the GSS by — about 20 ms at the 5 ms period. A leg's snapshot takes its
// remote entries from its coordinator's GSS (or a newer one the client
// saw), which under scheduling noise can trail this partition's by a
// broadcast or two, and a snapshot below the frontier risks a refusal; a
// few rounds of slack make refusals vanish and cost only milliseconds of
// writes kept.
const frontierLag = 4

// applyGSS merges a broadcast GSS, keeping monotonicity under reordering,
// and moves the store's trim frontier to the GSS frontierLag broadcasts ago.
func (s *Server) applyGSS(g vclock.Vec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gss.MaxInto(g)
	slot := &s.past[s.rounds%frontierLag]
	if *slot != nil {
		s.store.SetFrontier(*slot)
	}
	*slot = s.gss.Clone()
	s.rounds++
}

// vvSnapshot returns the server's version vector with the local entry set
// to the current clock reading. With HLC or physical clocks the local entry
// advances even when the partition is idle, which is the heartbeat that
// keeps the GSS fresh (Section 4).
func (s *Server) vvSnapshot() vclock.Vec {
	s.mu.RLock()
	v := s.vv.Clone()
	s.mu.RUnlock()
	v[s.cfg.DC] = s.clock.Now()
	return v
}

// handlePut installs a new local version (Section 4, PUT path).
func (s *Server) handlePut(src wire.From, reqID uint64, m *wire.PutReq) family.Op {
	op := family.Op{Kind: family.OpPut, Key: m.Key}
	deps := m.Deps
	if len(deps) != s.cfg.NumDCs {
		d := vclock.New(s.cfg.NumDCs)
		d.MaxInto(deps)
		deps = d
	}
	// The new version's timestamp must exceed every dependency entry so
	// that DV[src] dominates the vector. With a physical clock this Update
	// may wait out clock skew — Cure's write-side blocking. The blocking
	// part runs outside the fence; the final Tick inside it is instant.
	s.clock.Update(deps.Max())

	var durable *atomic.Bool
	if s.cfg.Durable != nil {
		durable = new(atomic.Bool)
	}
	s.putMu.Lock()
	ts := s.clock.Tick()
	dv := deps.Clone()
	dv[s.cfg.DC] = ts
	v := mvstore.Version{Value: m.Value, TS: ts, SrcDC: uint8(s.cfg.DC), DV: dv}
	s.store.Install(m.Key, v)
	if s.durGate != nil {
		s.durGate.add(ts)
	}
	s.repl.enqueue(wire.Update{Key: m.Key, Value: m.Value, TS: ts, DV: dv}, durable)
	s.putMu.Unlock()

	// Durability gates both the acknowledgment and replication, but not
	// the install: group commit runs outside the fence so concurrent PUTs
	// share fsyncs, and the enqueued update only becomes shippable once
	// the flag flips on the real fsync (see repStream.cut and logInstall)
	// — a version the origin could still lose must never be durably
	// applied at a remote DC.
	if s.cfg.Durable != nil {
		fs := time.Now()
		err := s.logInstall(m.Key, m.Value, ts, dv, durable)
		op.Fsync = time.Since(fs)
		if err != nil {
			transport.RespondError(s.Node, src, reqID, 500, "core: wal: "+err.Error())
			return op
		}
	}
	_ = s.Node.Respond(src, reqID, &wire.PutResp{TS: ts, GSS: s.gssSnapshot()})
	return op
}

// makeSV picks the snapshot vector for a ROT: remote entries from the GSS
// (never ahead of what every local partition has installed, hence
// nonblocking), local entry from the coordinator clock (fresh).
func (s *Server) makeSV(seenLocal uint64, seenGSS vclock.Vec) vclock.Vec {
	sv := s.gssSnapshot()
	sv.MaxInto(seenGSS)
	sv[s.cfg.DC] = max(s.clock.Now(), seenLocal)
	return sv
}

// handleRotCoord runs the coordinator role (Figure 3). Its read is the
// whole ROT's: the request carries every key.
func (s *Server) handleRotCoord(src wire.From, reqID uint64, m *wire.RotCoordReq) family.Op {
	sv := s.makeSV(m.SeenLocal, m.SeenGSS)
	if m.Mode == uint8(TwoRounds) {
		_ = s.Node.Respond(src, reqID, &wire.RotCoordResp{RotID: m.RotID, SV: sv})
		return family.Read(nil)
	}
	// 1 1/2 rounds: forward reads; partitions answer the client directly.
	var own []string
	keys := 0
	for _, g := range m.Groups {
		keys += len(g.Keys)
		if int(g.Part) == s.cfg.Part {
			own = g.Keys
			continue
		}
		_ = s.Node.Send(wire.ServerAddr(s.cfg.DC, int(g.Part)), &wire.RotFwd{
			RotID:  m.RotID,
			Client: src.Addr,
			Sess:   src.Sess,
			SV:     sv,
			Keys:   g.Keys,
		})
	}
	op := family.Read(own)
	vals, wait, err := s.readAt(sv, own)
	var reply wire.Message = &wire.RotSnap{RotID: m.RotID, SV: sv, Vals: vals}
	if err != nil {
		reply = s.refusal(m.RotID)
	}
	_ = s.Node.SendTo(src, reply)
	op.Keys, op.Queue = keys, wait
	return op
}

// handleRotFwd serves the coordinator-forwarded leg of a 1 1/2-round ROT.
func (s *Server) handleRotFwd(m *wire.RotFwd) family.Op {
	op := family.Read(m.Keys)
	vals, wait, err := s.readAt(m.SV, m.Keys)
	var reply wire.Message = &wire.RotVals{RotID: m.RotID, Vals: vals}
	if err != nil {
		reply = s.refusal(m.RotID)
	}
	_ = s.Node.SendTo(wire.From{Addr: m.Client, Sess: m.Sess}, reply)
	op.Queue = wait
	return op
}

// handleRotRead serves the second round of a 2-round ROT.
func (s *Server) handleRotRead(src wire.From, reqID uint64, m *wire.RotReadReq) family.Op {
	op := family.Read(m.Keys)
	vals, wait, err := s.readAt(m.SV, m.Keys)
	var reply wire.Message = &wire.RotReadResp{Vals: vals}
	if err != nil {
		reply = s.refusal(0)
	}
	_ = s.Node.Respond(src, reqID, reply)
	op.Queue = wait
	return op
}

// refusal answers a ROT leg whose snapshot needs a version the store has
// trimmed. It carries the trim frontier, which the client folds into its
// causal context, so the retried ROT's snapshot covers what this partition
// retains.
func (s *Server) refusal(rotID uint64) *wire.RotRefused {
	return &wire.RotRefused{RotID: rotID, Frontier: s.store.Frontier()}
}

// readAt returns the freshest version of each key within snapshot sv, or
// mvstore.ErrTrimmed if one of them is no longer retained.
//
// The partition first brings its clock up to the snapshot's local entry so
// no later PUT can be assigned a timestamp inside the snapshot. Clocks that
// can jump (HLC, Lamport) make this instantaneous — nonblocking ROTs; a
// physical clock sleeps out the difference — Cure's read-side blocking.
// It also returns how long the read waited on the durability gate (the
// slow-op trace's queue phase).
func (s *Server) readAt(sv vclock.Vec, keys []string) ([]wire.KV, time.Duration, error) {
	if len(keys) == 0 {
		return nil, 0, nil
	}
	var gateWait time.Duration
	local := uint64(0)
	if s.cfg.DC < len(sv) {
		local = sv[s.cfg.DC]
	}
	if s.clock.Now() < local {
		s.clock.Update(local)
	}
	// A durable partition additionally waits until every local put inside
	// the snapshot has been fsynced: serving a version the WAL could still
	// lose would let a crash un-happen an observed state. The wait is the
	// tail of a group commit (sub-millisecond in sync mode, up to the
	// background window in async mode — the documented trade-off).
	//
	// The gate must be re-checked UNDER the fence: a put already inside the
	// fence with ts ≤ SV[local] registers with the gate there, so a plain
	// wait-then-lock could slip between its timestamp assignment and its
	// registration. Once the read lock is held with the gate clear, no new
	// pending put at ts ≤ SV[local] can appear (writers are excluded, and
	// the clock move above pushes future puts past the snapshot).
	//
	// After the clock move, any in-flight PUT that has not yet entered the
	// fence will be timestamped above SV[local]; waiting for the fence
	// flushes the ones already inside it.
	if s.durGate != nil {
		gs := time.Now()
		for {
			s.durGate.waitClear(local)
			s.putMu.RLock()
			if s.durGate.clearBelow(local) {
				break
			}
			s.putMu.RUnlock()
		}
		gateWait = time.Since(gs)
	} else {
		s.putMu.RLock()
	}
	defer s.putMu.RUnlock()
	vals := make([]wire.KV, len(keys))
	for i, k := range keys {
		v, ok, err := s.store.ReadAtSnapshot(k, sv)
		if err != nil {
			return nil, gateWait, err
		}
		if ok {
			vals[i] = wire.KV{Key: k, Value: v.Value, TS: v.TS}
		} else {
			vals[i] = wire.KV{Key: k}
		}
	}
	return vals, gateWait, nil
}

// handleRepBatch applies a replication batch from a sibling replica.
//
// Deduplication: a batch is dropped only when BOTH its sequence is stale
// (below the per-source cursor) and its HighTS is covered by our version
// vector. The second condition is what makes the drop provably safe: every
// update in the batch has ts ≤ HighTS, and vv[src] = H means the origin's
// cut invariant already delivered us every origin update with ts ≤ H — so
// the batch's content is a subset of what we hold. Sequence alone is NOT
// proof: a sender recovering from a crash resumes from its durable cursor,
// which may trail what we acknowledged (the cursor fsync raced the crash),
// so stale-sequence batches with fresh HighTS carry the re-shipped
// recovered tail and must be applied (installs are idempotent).
func (s *Server) handleRepBatch(src wire.From, reqID uint64, m *wire.RepBatch) family.Op {
	if !s.FromPeer(src, reqID, m.SrcDC) {
		return family.Op{}
	}
	srcDC := int(m.SrcDC)
	op := family.Op{Kind: family.OpRep}
	if len(m.Ups) > 0 {
		op.Key = m.Ups[0].Key
	}
	s.mu.Lock()
	if m.Seq < s.nextIn[srcDC] && m.HighTS <= s.vv[srcDC] {
		// Provable duplicate (lost or delayed ack); already applied.
		s.mu.Unlock()
		_ = s.Node.Respond(src, reqID, &wire.RepAck{Seq: m.Seq})
		return op
	}
	prevNextIn := s.nextIn[srcDC]
	if m.Seq >= s.nextIn[srcDC] {
		s.nextIn[srcDC] = m.Seq + 1
	}
	s.mu.Unlock()

	// Replicated installs are logged as one multi-record append (one group
	// commit) BEFORE they become visible and before the batch is
	// acknowledged, waiting for the real fsync even in background-sync
	// mode: a pre-fsync install could be observed by a local ROT and then
	// taken back by a crash, and our ack advances the sender's durable
	// cursor, after which it will never re-send this batch, so acking
	// inside our loss window could diverge the DCs. A WAL failure
	// withholds the ack and the (idempotent) batch is retried.
	if s.cfg.Durable != nil && len(m.Ups) > 0 {
		recs := make([]wal.Record, len(m.Ups))
		for i := range m.Ups {
			u := &m.Ups[i]
			recs[i] = wal.Record{Key: u.Key, Value: u.Value, TS: u.TS, SrcDC: m.SrcDC, DV: u.DV}
		}
		fs := time.Now()
		err := wal.AppendAndSync(s.cfg.Durable, recs)
		op.Fsync = time.Since(fs)
		if err != nil {
			// Withholding the ack makes the sender retry; roll the dedup
			// cursor back (unless a later batch already advanced it) so the
			// retry is not mistaken for an applied duplicate and the
			// records get another chance at durability.
			s.mu.Lock()
			if s.nextIn[srcDC] == m.Seq+1 {
				s.nextIn[srcDC] = prevNextIn
			}
			s.mu.Unlock()
			transport.RespondError(s.Node, src, reqID, 500, "core: wal: "+err.Error())
			return op
		}
	}
	for i := range m.Ups {
		u := &m.Ups[i]
		s.store.Install(u.Key, mvstore.Version{
			Value: u.Value, TS: u.TS, SrcDC: m.SrcDC, DV: u.DV,
		})
	}
	s.mu.Lock()
	if m.HighTS > s.vv[srcDC] {
		s.vv[srcDC] = m.HighTS
	}
	s.mu.Unlock()
	_ = s.Node.Respond(src, reqID, &wire.RepAck{Seq: m.Seq})
	return op
}

// reportLoop periodically reports the server's VV to the DC stabilizer.
func (s *Server) reportLoop() {
	defer s.wg.Done()
	t := newTicker(stabilizePeriod)
	defer t.Stop()
	stab := wire.StabilizerAddr(s.cfg.DC)
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			_ = s.Node.Send(stab, &wire.VVReport{
				Part: uint32(s.cfg.Part),
				VV:   s.vvSnapshot(),
			})
		}
	}
}
