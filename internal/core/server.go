package core

import (
	"cmp"
	"slices"
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
// families add to it — the commit watermark, the batch cut each
// replication stream ships and the stabilized snapshot.
type Server struct {
	*family.Partition
	cfg    Config
	clock  hlc.Clock
	store  *mvstore.Store
	repl   *family.Replicator
	queues []*repQueue // one per remote DC, the sources of repl's streams
	wm     watermark

	mu  sync.RWMutex
	vv  vclock.Vec // vv[i], i ≠ local: latest ts received from DC i's replica
	gss vclock.Vec // latest Global Stable Snapshot broadcast
	// past holds the GSS after each broadcast of the last frontierLag, oldest
	// first; the newest entry older than that is the store's trim frontier.
	past []pastGSS

	reported atomic.Bool // a batch sent a VVReport since reportLoop's last tick

	stop chan struct{}
	wg   sync.WaitGroup
}

// watermark is the partition's one ordering lock for PUT timestamps,
// snapshot reads and the replication cut. pending holds the local
// timestamps that have been ticked but whose PUT has not finished —
// installed, or abandoned on a failed append — in tick order. A timestamp
// enters pending in the critical section that ticks it and queues its
// update for every remote DC (Server.begin), which gives two invariants:
//  1. once a reader has moved the clock to SV[local] and no pending
//     timestamp is ≤ SV[local], every version with ts ≤ SV[local] that
//     will ever exist is installed — later ticks land above the clock;
//  2. every queued update below the oldest pending timestamp is finished,
//     so a replication cut there never runs ahead of an update it has not
//     shipped, nor ships one the origin could still lose.
type watermark struct {
	mu      sync.Mutex
	cond    sync.Cond // on mu; signalled when the finished prefix pops or the server closes
	pending []pendingPut
	closed  bool
}

type pastGSS struct {
	at  time.Time
	gss vclock.Vec
}

type pendingPut struct {
	ts   uint64
	done bool
}

// begin ticks u's timestamp, stamps it into u's dependency vector, and
// queues u for every remote DC, all under the watermark.
func (s *Server) begin(u *wire.Update) {
	s.wm.mu.Lock()
	u.TS = s.clock.Tick()
	u.DV[s.cfg.DC] = u.TS
	s.wm.pending = append(s.wm.pending, pendingPut{ts: u.TS})
	for _, q := range s.queues {
		q.queue = append(q.queue, *u)
	}
	s.wm.mu.Unlock()
}

// finish retires the PUT that begin stamped ts: installed (ok), or
// abandoned, in which case its update leaves the replication queues unshipped.
// Readers and cuts waiting on the finished prefix move on.
func (s *Server) finish(ts uint64, ok bool) {
	w := &s.wm
	w.mu.Lock()
	defer w.mu.Unlock()
	i, _ := slices.BinarySearchFunc(w.pending, ts, func(p pendingPut, ts uint64) int { return cmp.Compare(p.ts, ts) })
	w.pending[i].done = true
	if !ok {
		for _, q := range s.queues {
			if j, found := slices.BinarySearchFunc(q.queue, ts, func(u wire.Update, ts uint64) int { return cmp.Compare(u.TS, ts) }); found {
				q.queue = slices.Delete(q.queue, j, j+1)
			}
		}
	}
	k := 0
	for k < len(w.pending) && w.pending[k].done {
		k++
	}
	if k > 0 {
		w.pending = slices.Delete(w.pending, 0, k)
		w.cond.Broadcast()
	}
}

// await blocks until no unfinished PUT has a timestamp ≤ ts, or the server
// closes, and returns how long it waited.
func (w *watermark) await(ts uint64) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	blocked := func() bool { return !w.closed && len(w.pending) > 0 && w.pending[0].ts <= ts }
	if !blocked() {
		return 0
	}
	start := time.Now()
	for blocked() {
		w.cond.Wait()
	}
	return time.Since(start)
}

// close releases every waiter for good (server shutdown).
func (w *watermark) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
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
	s.wm.cond.L = &s.wm.mu
	s.Partition = family.NewPartition("core", cfg.DC, cfg.NumDCs, cfg.Slow, s.store.Register)
	if cfg.Clock != ClockLogical {
		s.Expose(s.registerLags)
	}
	var recovered []wire.Update
	if cfg.Durable != nil {
		var err error
		if recovered, err = s.recover(); err != nil {
			return nil, err
		}
	}
	open, err := s.Attach(net, wire.ServerAddr(cfg.DC, cfg.Part), s.dispatch)
	if err != nil {
		return nil, err
	}
	// The queues, each holding the recovered updates its DC has not acked,
	// must exist before the server is reachable: the first PUT joins them.
	s.repl = family.NewReplicator(s.Node, cfg.DC, cfg.Part, cfg.NumDCs, cfg.Durable, repWindow, repRetryTimeout,
		func(acked uint64) (family.Source, []uint64) {
			i := sort.Search(len(recovered), func(i int) bool { return recovered[i].TS > acked })
			q := &repQueue{s: s, queue: slices.Clone(recovered[i:])}
			s.queues = append(s.queues, q)
			return q, nil // a batch's ack covers all shipped before it
		})
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
// It returns the recovered LOCAL updates in timestamp order: each
// replication queue starts with the suffix its remote DC has not acknowledged
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

// Start launches replication streams and the VV reporting loop.
func (s *Server) Start() {
	s.repl.Start()
	s.wg.Add(1)
	go s.reportLoop()
}

// Close stops background work and detaches from the network.
func (s *Server) Close() error {
	close(s.stop)
	s.wm.close()
	s.repl.Stop()
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

// frontierLag is how long the store's trim frontier trails the GSS: four
// stabilization periods. A leg's snapshot takes its remote entries from its
// coordinator's GSS (or a newer one the client saw), which under scheduling
// noise can trail this partition's by a broadcast or two, and a snapshot
// below the frontier risks a refusal; a few periods of slack make refusals
// vanish and cost only milliseconds of writes kept. It is a time, not a
// count of broadcasts, because rounds close as often as replication moves
// the partitions' VVs.
const frontierLag = 4 * stabilizePeriod

// applyGSS merges a broadcast GSS, keeping monotonicity under reordering,
// and moves the store's trim frontier to the newest GSS at least frontierLag
// old.
func (s *Server) applyGSS(g vclock.Vec) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gss.MaxInto(g)
	k := 0
	for k < len(s.past) && now.Sub(s.past[k].at) >= frontierLag {
		k++
	}
	if k > 0 {
		s.store.SetFrontier(s.past[k-1].gss)
		s.past = slices.Delete(s.past, 0, k)
	}
	s.past = append(s.past, pastGSS{at: now, gss: s.gss.Clone()})
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

// handlePut commits a new local version (Section 4, PUT path). begin
// stamps it and queues it for the other DCs; the WAL append, on a durable
// partition, comes before the install, so durability gates visibility as in
// family.LoServer; finish then lets readers and the replication cut past
// its timestamp. The client is acknowledged when the append returns: after
// the covering fsync under SyncAlways, once written under SyncBackground —
// and then the handler waits out the fsync before it installs.
func (s *Server) handlePut(src wire.From, reqID uint64, m *wire.PutReq) family.Op {
	op := family.Op{Kind: family.OpPut, Key: m.Key}
	u := wire.Update{Key: m.Key, Value: m.Value, DV: vclock.New(s.cfg.NumDCs)}
	u.DV.MaxInto(m.Deps)
	// The new version's timestamp must exceed every dependency entry so
	// that DV[src] dominates the vector. With a physical clock this Update
	// may wait out clock skew — Cure's write-side blocking. The blocking
	// part runs outside the watermark; the final Tick inside it is instant.
	s.clock.Update(u.DV.Max())
	s.begin(&u)

	ack := func() { _ = s.Node.Respond(src, reqID, &wire.PutResp{TS: u.TS, GSS: s.gssSnapshot()}) }
	acked := false
	var err error
	if s.cfg.Durable != nil {
		fs := time.Now()
		synced := make(chan error, 1)
		err = s.cfg.Durable.AppendSynced([]wal.Record{{
			Key: u.Key, Value: u.Value, TS: u.TS, SrcDC: uint8(s.cfg.DC), DV: u.DV,
		}}, func(err error) { synced <- err })
		if err == nil {
			select {
			case err = <-synced: // the append returned after its fsync
			default:
				ack()
				acked = true
				err = <-synced
			}
		}
		op.Fsync = time.Since(fs)
	}
	if err == nil {
		s.store.Install(u.Key, mvstore.Version{Value: u.Value, TS: u.TS, SrcDC: uint8(s.cfg.DC), DV: u.DV})
	}
	// A failed append is never installed nor shipped: a crash is allowed to
	// lose what was not acknowledged, and under SyncBackground an acked
	// write lost to the window is lost everywhere.
	s.finish(u.TS, err == nil)
	switch {
	case acked:
	case err != nil:
		transport.RespondError(s.Node, src, reqID, 500, "core: wal: "+err.Error())
	default:
		ack()
	}
	return op
}

// makeSV picks the snapshot vector for a ROT from the session's causal
// context seen: remote entries from the GSS (never ahead of what every local
// partition has installed, hence nonblocking), local entry from the
// coordinator clock (fresh) but never below the highest local timestamp the
// session has seen, so a ROT after the session's own PUT covers it.
func (s *Server) makeSV(seen vclock.Vec) vclock.Vec {
	sv := s.gssSnapshot()
	sv.MaxInto(seen)
	local := s.clock.Now()
	if s.cfg.DC < len(seen) {
		local = max(local, seen[s.cfg.DC])
	}
	sv[s.cfg.DC] = local
	return sv
}

// handleRotCoord runs the coordinator role (Figure 3). Its read is the
// whole ROT's: the request carries every key.
func (s *Server) handleRotCoord(src wire.From, reqID uint64, m *wire.RotCoordReq) family.Op {
	sv := s.makeSV(m.SeenGSS)
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
	var reply wire.Message = &wire.RotVals{RotID: m.RotID, Part: uint32(s.cfg.Part), Vals: vals}
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

// readAt returns the freshest version of each key within snapshot sv, in
// key order and unlabelled (responses are positional), or
// mvstore.ErrTrimmed if one of them is no longer retained.
//
// The partition first brings its clock up to the snapshot's local entry so
// no later PUT can be assigned a timestamp inside the snapshot. Clocks that
// can jump (HLC, Lamport) make this instantaneous — nonblocking ROTs; a
// physical clock sleeps out the difference — Cure's read-side blocking.
// It then waits until no PUT inside the snapshot is unfinished, so every
// version the snapshot covers is installed — and, on a durable partition,
// fsynced: serving a version the WAL could still lose would let a crash
// un-happen an observed state. That wait is the tail of a group commit
// (sub-millisecond under SyncAlways, up to the fsync window under
// SyncBackground) and is returned as the slow-op trace's queue phase. The
// store reads take no lock.
func (s *Server) readAt(sv vclock.Vec, keys []string) ([]wire.KV, time.Duration, error) {
	if len(keys) == 0 {
		return nil, 0, nil
	}
	local := uint64(0)
	if s.cfg.DC < len(sv) {
		local = sv[s.cfg.DC]
	}
	if s.clock.Now() < local {
		s.clock.Update(local)
	}
	wait := s.wm.await(local)
	vals := make([]wire.KV, len(keys))
	for i, k := range keys {
		v, ok, err := s.store.ReadAtSnapshot(k, sv)
		if err != nil {
			return nil, wait, err
		}
		if ok {
			vals[i] = wire.KV{Value: v.Value, TS: v.TS}
		}
	}
	return vals, wait, nil
}

// handleRepBatch applies a replication batch from a sibling replica.
//
// A batch whose HighTS our version vector already covers is a duplicate — a
// lost or delayed ack, or a restarted sender re-shipping from a stale
// cursor — and is acked without being logged or installed. The drop is
// provably safe: every update in the batch has ts ≤ HighTS, and vv[src] = H
// means the origin's stop-and-wait stream and its cut invariant (see
// repQueue.cut) already delivered us every origin update with ts ≤ H,
// since VV moves only after a batch's installs. Any other batch is applied;
// installs are idempotent, so a re-shipped recovered tail above VV is safe.
func (s *Server) handleRepBatch(src wire.From, reqID uint64, m *wire.RepBatch) family.Op {
	if !s.FromPeer(src, reqID, m.SrcDC) {
		return family.Op{}
	}
	srcDC := int(m.SrcDC)
	op := family.Op{Kind: family.OpRep}
	if len(m.Ups) > 0 {
		op.Key = m.Ups[0].Key
	}
	s.mu.RLock()
	covered := m.HighTS <= s.vv[srcDC]
	s.mu.RUnlock()
	if covered {
		_ = s.Node.Respond(src, reqID, &wire.RepAck{})
		return op
	}

	// Replicated installs are logged as one multi-record append (one group
	// commit) BEFORE they become visible and before the batch is
	// acknowledged, waiting for the real fsync even in background-sync
	// mode: a pre-fsync install could be observed by a local ROT and then
	// taken back by a crash, and our ack advances the sender's durable
	// cursor, after which it will never re-send this batch, so acking
	// inside our loss window could diverge the DCs. A WAL failure
	// withholds the ack and the (idempotent) batch is retried; VV has not
	// moved, so the retry is applied.
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
	moved := m.HighTS > s.vv[srcDC] // a concurrent retry of this batch may have won
	if moved {
		s.vv[srcDC] = m.HighTS
	}
	s.mu.Unlock()
	_ = s.Node.Respond(src, reqID, &wire.RepAck{})
	if moved {
		s.reported.Store(true)
		s.report()
	}
	return op
}

// report sends the partition's VV to its DC's stabilizer. handleRepBatch
// calls it whenever a batch moves the VV, so a remote write reaches the
// stabilizer one LAN hop after it becomes readable here.
func (s *Server) report() {
	_ = s.Node.Send(wire.StabilizerAddr(s.cfg.DC), &wire.VVReport{
		Part: uint32(s.cfg.Part),
		VV:   s.vvSnapshot(),
	})
}

// newTicker wraps time.NewTicker, flooring the period at a safe minimum.
func newTicker(d time.Duration) *time.Ticker {
	if d < 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	return time.NewTicker(d)
}

// reportLoop is the reporting floor: at each stabilization period's tick it
// reports unless a batch did since the last one — a remote DC that is idle
// or cut off, or a deployment of one DC, where no batch moves the VV. The
// local entry, the clock, then still reaches the GSS every period.
func (s *Server) reportLoop() {
	defer s.wg.Done()
	t := newTicker(stabilizePeriod)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if !s.reported.Swap(false) {
				s.report()
			}
		}
	}
}
