package family

import (
	"sort"
	"time"

	"repro/internal/hlc"
	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// LoStore is the store adapter a dependency-list family supplies.
type LoStore struct {
	// HasVersion reports whether exactly the (ts, src) version of key is
	// installed here — the dependency-check predicate.
	HasVersion func(key string, ts uint64, src uint8) bool
	// Install makes rec's version readable, hidden from readers (the old
	// readers the family's pre-commit step collected; nil for none). It is
	// idempotent: replication re-delivers and recovery replays.
	Install func(rec wal.Record, readers []wire.ReaderEntry)
	// Snapshot streams the store's durable state to a WAL snapshot.
	Snapshot wal.SnapshotSource
	// Seal marks every chain trimmed once recovery has replayed the log
	// (store.Engine.Seal): the snapshot kept only what each chain needed.
	Seal func()
	// Register exposes the store's series.
	Register Series
}

// LoServer is the write, replication-install and recovery skeleton of a
// dependency-list family (CC-LO, COPS): everything about a partition
// server that does not depend on how the family serves reads. A family
// embeds it, supplies a LoStore and its ROT handlers, and runs whatever it
// must before a version commits (CC-LO: the readers check; COPS: nothing);
// what that step found arrives here as data — a timestamp floor and an
// old-readers slice, zero and nil when there was no step.
//
// CommitLocal, CommitRemote and Replay own the order in which a version
// becomes durable, visible and shipped; a replicated update reaches
// CommitRemote only once its dependencies are installed in this DC (WaitDeps,
// or the family's own check through AwaitInstalled). The order is the
// protocol's crash safety, so it is written down once, here:
//
//   - Track before append. The cursor frontier treats timestamps it has
//     never seen as acknowledged (see WindowReplicator.Track), so a local
//     update is registered with the streams before it can become durable.
//   - Durability gates VISIBILITY, not just the acknowledgment. The real
//     fsync (even in background-sync mode) completes before the install, so
//     no read and no dependency check can observe a version a crash could
//     still take back: a dep check passing on an un-fsynced version would
//     permanently unblock dependents in other DCs that recovery can never
//     satisfy again.
//   - The reader record goes FIRST in the append. It shares one group
//     commit with its install, but a crash can still tear the batch's
//     unfsynced tail, and a torn reader record behind a surviving install
//     would resurrect the version without its rewind protection. Torn the
//     other way round the version is lost too and the orphaned marks are
//     dropped at recovery.
//   - Install, then wake dependency checks, then enqueue or ack. Never
//     ship what the origin could lose; enqueueing in commit order also keeps
//     same-partition dependencies launching no later than their dependents.
//     The dependency list is persisted with a local install so a
//     crash-recovered re-enqueue still carries it. A replicated update's
//     ack advances the origin's durable cursor, after which it is never
//     re-sent, so the ack must never outrun our own fsync.
//   - A failed append does none of install, enqueue and ack. The client
//     sees a 500; an unacked update is retried (idempotently) by its origin.
type LoServer struct {
	*Partition
	Clock *hlc.Lamport
	Ring  ring.Ring

	part    int
	durable wal.Durability // nil: in memory
	store   LoStore

	recovered []*wire.LoRepUpdate // Replay's local updates, for Attach
	deps      *DepWaiter
	repl      *WindowReplicator
}

// NewLoServer builds the skeleton of partition (dc, part). Replay it (when
// durable), then Attach it.
func NewLoServer(name string, dc, part, numDCs, numParts int, durable wal.Durability, slow *metrics.SlowRing, store LoStore) *LoServer {
	s := &LoServer{
		Partition: NewPartition(name, dc, numDCs, slow, store.Register),
		Clock:     hlc.NewLamport(0),
		Ring:      ring.New(numParts),
		part:      part,
		durable:   durable,
		store:     store,
	}
	s.Expose(s.registerDeps)
	return s
}

// Replay replays the durable log into the store (a no-op in memory), seals
// it, so a dependency on a version the snapshot dropped counts as installed,
// advances the clock past every recovered timestamp so new writes order
// above acknowledged ones, and keeps the recovered LOCAL updates in
// timestamp order for the replicator's re-enqueue. Old-reader records are
// returned to the family by version identity; they may replay before their
// install (snapshots) or after a duplicate of it (re-delivered updates), so
// they are only complete — and only safe to apply — once Replay has
// returned and the version chains have settled.
func (s *LoServer) Replay() (map[wire.LoDep][]wire.ReaderEntry, error) {
	if s.durable == nil {
		return nil, nil
	}
	var maxTS uint64
	readers := make(map[wire.LoDep][]wire.ReaderEntry)
	err := s.durable.Replay(func(rec wal.Record) error {
		if rec.Kind == wal.RecReaders {
			id := wire.LoDep{Key: rec.Key, TS: rec.TS, Src: rec.SrcDC}
			readers[id] = append(readers[id], rec.Readers...)
			return nil
		}
		s.store.Install(rec, nil)
		maxTS = max(maxTS, rec.TS)
		if int(rec.SrcDC) == s.dc {
			s.recovered = append(s.recovered, &wire.LoRepUpdate{
				SrcDC: rec.SrcDC,
				Key:   rec.Key,
				Value: rec.Value,
				TS:    rec.TS,
				Deps:  rec.Deps,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.store.Seal()
	// Re-enqueued local updates carry their recovered old readers, exactly
	// as the pre-crash enqueue did: the receiving DC merges them into its
	// own check before installing.
	for _, u := range s.recovered {
		u.OldReaders = readers[wire.LoDep{Key: u.Key, TS: u.TS, Src: u.SrcDC}]
	}
	sort.Slice(s.recovered, func(i, j int) bool { return s.recovered[i].TS < s.recovered[j].TS })
	if maxTS > 0 {
		s.Clock.Update(maxTS)
	}
	return readers, nil
}

// Attach registers the partition with dispatch — the family's message
// switch, behind the dependency checks every dependency-list family answers
// alike — and builds the dependency waiter and the replication streams
// (seeded with what Replay recovered). Dispatch stays gated until both
// exist: the first PUT to arrive enqueues into the streams. The snapshot
// source is registered here, not by Replay: a periodic snapshot must not run
// before the family has finished rebuilding what Replay handed back to it.
func (s *LoServer) Attach(net transport.Network, dispatch Dispatch) error {
	open, err := s.Partition.Attach(net, wire.ServerAddr(s.dc, s.part),
		func(src wire.From, reqID uint64, m wire.Message) (Op, bool) {
			if msg, ok := m.(*wire.DepCheckReq); ok {
				s.deps.HandleDepCheck(src, reqID, msg)
				return Op{}, true
			}
			return dispatch(src, reqID, m)
		})
	if err != nil {
		return err
	}
	if s.durable != nil {
		s.durable.SetSnapshotSource(s.store.Snapshot)
	}
	s.deps = NewDepWaiter(s.Node, s.dc, s.part, s.Ring, s.store.HasVersion)
	s.repl = NewWindowReplicator(s.Node, s.dc, s.part, s.numDCs, s.durable, s.recovered)
	s.recovered = nil
	open()
	return nil
}

// Start launches replication streams.
func (s *LoServer) Start() { s.repl.Start() }

// Close stops background work and detaches from the network.
func (s *LoServer) Close() error {
	s.repl.Stop()
	s.deps.Stop()
	return s.Node.Close()
}

// Preload installs an initial version (ts 1, DC 0) of each key directly,
// bypassing the protocol; used by benchmarks to stand up the data set.
func (s *LoServer) Preload(keys []string, val []byte) {
	for _, k := range keys {
		s.store.Install(wal.Record{Key: k, Value: val, TS: 1}, nil)
	}
	s.Clock.Update(1)
}

// registerDeps exposes the dependency checks under r.
func (s *LoServer) registerDeps(r *metrics.Registry, labels ...metrics.Label) {
	r.CounterFunc("kv_dep_check_requests_total",
		"Dependency checks sent: one per partition holding a dependency of a replicated update (COPS; CC-LO's readers check waits instead).",
		func() float64 { return float64(s.deps.requests.Load()) }, labels...)
	r.CounterFunc("kv_dep_check_keys_total", "Dependencies carried by the dependency checks sent.",
		func() float64 { return float64(s.deps.keys.Load()) }, labels...)
	r.CounterFunc("kv_dep_waits_total",
		"Dependencies missing on arrival — of a replicated update here, or of a check served here — that had to wait for their install.",
		func() float64 { return float64(s.deps.waits.Load()) }, labels...)
}

// CommitLocal commits a client PUT: it assigns a timestamp above floor and
// every dependency, tracks, appends, installs, wakes dependency checks,
// enqueues the update for the other DCs and answers the client (see
// LoServer for why in that order). readers are the old readers the new
// version must stay invisible to; they are persisted, installed and shipped
// with it. It returns the put's Op for the family's dispatch to report.
func (s *LoServer) CommitLocal(src wire.From, reqID uint64, m *wire.LoPutReq, floor uint64, readers []wire.ReaderEntry) Op {
	op := Op{Kind: OpPut, Key: m.Key, Commit: time.Now()}
	// The timestamp must exceed every dependency timestamp (and, through
	// floor, every collected read time), so that "old" is well defined.
	for _, d := range m.Deps {
		floor = max(floor, d.TS)
	}
	ts := s.Clock.Update(floor)
	s.repl.Track(ts)
	var ok bool
	op.Fsync, ok = s.commit(src, reqID, wal.Record{Key: m.Key, Value: m.Value, TS: ts, SrcDC: uint8(s.dc), Deps: m.Deps}, readers)
	if ok {
		s.repl.Enqueue(&wire.LoRepUpdate{
			SrcDC:      uint8(s.dc),
			Key:        m.Key,
			Value:      m.Value,
			TS:         ts,
			Deps:       m.Deps,
			OldReaders: readers,
		})
		_ = s.Node.Respond(src, reqID, &wire.LoPutResp{TS: ts})
	}
	return op
}

// WaitDeps is the first half of a remote commit: it returns true once every
// dependency of the replicated update is installed in this DC. An update
// from no peer DC (see FromPeer), or a failed or shutdown-aborted check,
// answers the origin with an error and returns false; the caller withholds
// the install and the ack, and the origin retries the (idempotent) update.
// COPS runs it before CommitRemote; CC-LO folds the wait into its readers
// check (see AwaitInstalled).
func (s *LoServer) WaitDeps(src wire.From, reqID uint64, m *wire.LoRepUpdate) bool {
	if !s.FromPeer(src, reqID, m.SrcDC) {
		return false
	}
	if err := s.deps.WaitAll(m.Deps); err != nil {
		transport.RespondError(s.Node, src, reqID, 500, s.name+": dep check: "+err.Error())
		return false
	}
	return true
}

// AwaitInstalled blocks until every listed version is installed on this
// partition; an error means the server is stopping and some was NOT
// verified. A pre-commit step that already asks every partition holding a
// dependency (CC-LO's readers check) answers after it, and needs no WaitDeps.
func (s *LoServer) AwaitInstalled(deps []wire.LoDep) error {
	if !s.deps.waitInstalled(deps) {
		return errStopping
	}
	return nil
}

// CommitRemote installs a replicated update whose dependencies are all
// installed in this DC: it moves the clock past the origin timestamp and
// floor (Lamport clocks stay related), appends logged — the install record
// as the family wants it persisted — with the reader record, installs under
// the origin timestamp, wakes dependency checks and acks (see LoServer for
// why in that order). It returns the update's Op for the family's dispatch
// to report.
func (s *LoServer) CommitRemote(src wire.From, reqID uint64, m *wire.LoRepUpdate, logged wal.Record, floor uint64, readers []wire.ReaderEntry) Op {
	op := Op{Kind: OpRep, Key: m.Key, Commit: time.Now()}
	s.Clock.Update(max(m.TS, floor))
	var ok bool
	if op.Fsync, ok = s.commit(src, reqID, logged, readers); ok {
		_ = s.Node.Respond(src, reqID, &wire.RepAck{})
	}
	return op
}

// commit is the step both commits share: append and fsync, then install,
// then wake dependency checks. On a WAL error nothing was installed, the
// requester has its 500, and commit returns false.
func (s *LoServer) commit(src wire.From, reqID uint64, rec wal.Record, readers []wire.ReaderEntry) (fsync time.Duration, ok bool) {
	if s.durable != nil {
		fs := time.Now()
		err := wal.AppendAndSync(s.durable, installRecords(rec, readers))
		fsync = time.Since(fs)
		if err != nil {
			transport.RespondError(s.Node, src, reqID, 500, s.name+": wal: "+err.Error())
			return fsync, false
		}
	}
	s.store.Install(rec, readers)
	s.deps.Installed()
	return fsync, true
}

// installRecords pairs an install record with the old-reader record
// persisting its invisibility marks (when it has any), reader record first.
func installRecords(install wal.Record, readers []wire.ReaderEntry) []wal.Record {
	if len(readers) == 0 {
		return []wal.Record{install}
	}
	return []wal.Record{
		{Kind: wal.RecReaders, Key: install.Key, TS: install.TS, SrcDC: install.SrcDC, Readers: readers},
		install,
	}
}
