// Package cops implements the COPS-GT baseline that Section 3 of the paper
// walks through: the first causally consistent ROT design, using explicit
// per-version dependency lists instead of timestamps.
//
// ROTs take at most two rounds and may transfer two versions of a key: the
// first round returns each key's latest version together with its nearest
// dependencies; if those dependencies reveal a snapshot gap (Figure 1's
// "Y1 depends on X1" while the client got X0), a second round fetches the
// exact versions of the causal cut. Reads are nonblocking and writes carry
// the session's full dependency set — the fine-grained metadata the paper
// notes "has been shown to limit scalability" (§7, Table 2 row "COPS").
//
// Geo-replication ships (version, deps) and installs after a COPS-style
// dependency check, with no readers check — COPS predates latency
// optimality, so its writes are cheap compared to CC-LO while its reads
// cost up to one round and one version more than Contrarian's.
package cops

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/family"
	"repro/internal/hlc"
	"repro/internal/metrics"
	"repro/internal/ring"
	storeeng "repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config parameterizes one COPS partition server.
type Config struct {
	DC       int
	Part     int
	NumDCs   int
	NumParts int

	// MaxVersions caps per-key version chains.
	MaxVersions int
	// StoreShards is the storage engine shard count (0 = auto from
	// GOMAXPROCS; see internal/store).
	StoreShards int

	// Durable, when non-nil, makes every install — with its dependency
	// list, which COPS needs to recompute causal cuts — durable before it
	// is acknowledged (see wal.Durability).
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
	if c.MaxVersions <= 0 {
		c.MaxVersions = 64
	}
	return c
}

// version is one stored version with its nearest dependencies.
type version struct {
	value []byte
	ts    uint64
	srcDC uint8
	deps  []wire.LoDep
}

func (v *version) before(o *version) bool {
	if v.ts != o.ts {
		return v.ts < o.ts
	}
	return v.srcDC < o.srcDC
}

// store is the COPS partition storage: version chains with dependency
// lists, supporting latest reads and exact-version fetches. It is a thin
// adapter over the shared engine (internal/store) with deps as the
// per-version payload; latest/at/hasVersion/forEachLatest are lock-free.
type store struct {
	eng *storeeng.Engine[[]wire.LoDep, struct{}]
}

func newStore(maxVersions, shards int) *store {
	return &store{eng: storeeng.New[[]wire.LoDep, struct{}](maxVersions, shards)}
}

func fromEngine(ev *storeeng.Version[[]wire.LoDep]) version {
	return version{value: ev.Value, ts: ev.TS, srcDC: ev.Src, deps: ev.Extra}
}

func (s *store) install(key string, v version) {
	s.eng.Install(key, storeeng.Version[[]wire.LoDep]{Value: v.value, TS: v.ts, Src: v.srcDC, Extra: v.deps})
}

func (s *store) latest(key string) (version, bool) {
	ev := s.eng.Latest(key)
	if ev == nil {
		return version{}, false
	}
	return fromEngine(ev), true
}

// at returns the version of key identified by (ts, src); if it was
// trimmed, the oldest retained version above it stands in.
func (s *store) at(key string, ts uint64, src uint8) (version, bool) {
	var chain []storeeng.Version[[]wire.LoDep]
	if c := s.eng.View(key); c != nil {
		chain = c.Versions
	}
	want := storeeng.Version[[]wire.LoDep]{TS: ts, Src: src}
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].TS == ts && chain[i].Src == src {
			return fromEngine(&chain[i]), true
		}
		if chain[i].Before(&want) {
			// Exact version gone (trimmed); the next retained one above it
			// is the closest safe answer.
			if i+1 < len(chain) {
				return fromEngine(&chain[i+1]), true
			}
			return version{}, false
		}
	}
	if len(chain) > 0 {
		return fromEngine(&chain[0]), true
	}
	return version{}, false
}

// hasVersion reports whether the version of key identified by (ts, src) is
// installed (dependency-check predicate). Exact identity, not "any newer
// timestamp": Lamport timestamps collide across DCs, and a same-timestamp
// version from another DC satisfying the check would break the causal
// install order. A chain whose oldest retained version is LWW-above the
// identity proves it was installed and trimmed — the engine's Trimmed flag
// records that precisely (the old at-capacity heuristic answered true for a
// full chain that had never dropped anything; see TestHasVersionAtCapacity).
func (s *store) hasVersion(key string, ts uint64, src uint8) bool {
	c := s.eng.View(key)
	if c.Len() == 0 {
		return false
	}
	want := storeeng.Version[[]wire.LoDep]{TS: ts, Src: src}
	if c.Trimmed && want.Before(&c.Versions[0]) {
		return true
	}
	return c.Find(ts, src) >= 0
}

func (s *store) forEachLatest(fn func(key string, v version)) {
	s.eng.ForEach(func(key string, c *storeeng.Chain[[]wire.LoDep]) bool {
		fn(key, fromEngine(c.Latest()))
		return true
	})
}

// Server is one COPS partition replica.
type Server struct {
	cfg   Config
	clock *hlc.Lamport
	store *store
	node  transport.Node
	ring  ring.Ring

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
		cfg:     cfg,
		clock:   hlc.NewLamport(0),
		store:   newStore(cfg.MaxVersions, cfg.StoreShards),
		ring:    ring.New(cfg.NumParts),
		repAges: family.NewRepAges(cfg.NumDCs),
		slow:    cfg.Slow,
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

// recover replays the durable log — dependency lists included — into the
// store, advances the clock past every recovered timestamp, and registers
// the snapshot source. It returns the recovered LOCAL updates in timestamp
// order for the replicator's re-enqueue.
func (s *Server) recover() ([]*wire.LoRepUpdate, error) {
	var maxTS uint64
	var local []*wire.LoRepUpdate
	err := s.cfg.Durable.Replay(func(rec wal.Record) error {
		s.store.install(rec.Key, version{value: rec.Value, ts: rec.TS, srcDC: rec.SrcDC, deps: rec.Deps})
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
	sort.Slice(local, func(i, j int) bool { return local[i].TS < local[j].TS })
	if maxTS > 0 {
		s.clock.Update(maxTS)
	}
	s.cfg.Durable.SetSnapshotSource(func(emit func(wal.Record) error) error {
		var ferr error
		s.store.forEachLatest(func(key string, v version) {
			if ferr != nil {
				return
			}
			ferr = emit(wal.Record{Key: key, Value: v.value, TS: v.ts, SrcDC: v.srcDC, Deps: v.deps})
		})
		return ferr
	})
	return local, nil
}

// Addr returns the server's wire address.
func (s *Server) Addr() wire.Addr { return s.node.Addr() }

// Start launches replication streams.
func (s *Server) Start() { s.repl.Start() }

// Close stops background work and detaches from the network.
func (s *Server) Close() error {
	s.repl.Stop()
	s.deps.Stop()
	return s.node.Close()
}

// Preload installs an initial version (ts 1, DC 0) of each key directly.
func (s *Server) Preload(keys []string, val []byte) {
	for _, k := range keys {
		s.store.install(k, version{value: val, ts: 1, srcDC: 0})
	}
	s.clock.Update(1)
}

// ForEachLatest visits every key's newest version (tests, convergence).
func (s *Server) ForEachLatest(fn func(key string, value []byte, ts uint64, srcDC uint8)) {
	s.store.forEachLatest(func(k string, v version) {
		fn(k, v.value, v.ts, v.srcDC)
	})
}

// VersionsOf returns the identities of key's retained version chain, oldest
// first (tests and fault diagnostics).
func (s *Server) VersionsOf(key string) []wire.LoDep {
	c := s.store.eng.View(key)
	out := make([]wire.LoDep, 0, c.Len())
	for i := range c.Len() {
		out = append(out, wire.LoDep{Key: key, TS: c.Versions[i].TS, Src: c.Versions[i].Src})
	}
	return out
}

// Latest returns key's newest version with its dependency list (tests:
// crash recovery must preserve the deps COPS uses to compute causal cuts).
func (s *Server) Latest(key string) (value []byte, ts uint64, deps []wire.LoDep, ok bool) {
	v, ok := s.store.latest(key)
	return v.value, v.ts, v.deps, ok
}

// Handle dispatches one incoming message.
func (s *Server) Handle(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
	switch msg := m.(type) {
	case *wire.CopsRotReq:
		s.handleRot(src, reqID, msg)
	case *wire.CopsVerReq:
		s.handleVer(src, reqID, msg)
	case *wire.LoPutReq:
		s.handlePut(src, reqID, msg)
	case *wire.LoRepUpdate:
		s.handleRepUpdate(src, reqID, msg)
	case *wire.DepCheckReq:
		s.deps.HandleDepCheck(src, reqID, msg)
	case *wire.Ping:
		_ = n.Respond(src, reqID, &wire.Pong{Nonce: msg.Nonce})
	default:
		if reqID != 0 {
			transport.RespondError(n, src, reqID, 400, "cops: unexpected message")
		}
	}
}

// handleRot serves the first ROT round: latest versions with their
// dependency lists (the metadata COPS reads pay for).
func (s *Server) handleRot(src wire.From, reqID uint64, m *wire.CopsRotReq) {
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
	vals := make([]wire.DepKV, len(m.Keys))
	for i, k := range m.Keys {
		if v, ok := s.store.latest(k); ok {
			vals[i] = wire.DepKV{
				KV:   wire.KV{Key: k, Value: v.value, TS: v.ts, Src: v.srcDC},
				Deps: v.deps,
			}
		} else {
			vals[i] = wire.DepKV{KV: wire.KV{Key: k}}
		}
	}
	_ = s.node.Respond(src, reqID, &wire.CopsRotResp{Vals: vals})
}

// handleVer serves the second ROT round: a specific version.
func (s *Server) handleVer(src wire.From, reqID uint64, m *wire.CopsVerReq) {
	start := time.Now()
	defer func() { s.ops.Get.Record(time.Since(start)) }()
	if v, ok := s.store.at(m.Key, m.TS, m.Src); ok {
		_ = s.node.Respond(src, reqID, &wire.CopsVerResp{Val: wire.KV{Key: m.Key, Value: v.value, TS: v.ts, Src: v.srcDC}})
		return
	}
	_ = s.node.Respond(src, reqID, &wire.CopsVerResp{Val: wire.KV{Key: m.Key}})
}

// handlePut installs a new version carrying the client's dependency set.
// COPS writes are one round trip with no server-to-server communication in
// the local DC — the cheap-writes end of the paper's design space.
func (s *Server) handlePut(src wire.From, reqID uint64, m *wire.LoPutReq) {
	start := time.Now()
	var fsyncDur time.Duration
	defer func() {
		total := time.Since(start)
		s.ops.Put.Record(total)
		s.slow.Record(metrics.SlowOp{
			Start: start.UnixNano(), Op: "put", KeyHash: metrics.KeyHash(m.Key),
			Total: total, Fsync: fsyncDur,
		})
	}()
	high := uint64(0)
	for _, d := range m.Deps {
		high = max(high, d.TS)
	}
	ts := s.clock.Update(high)
	// Tracked BEFORE the append (see WindowReplicator.Track).
	s.repl.Track(ts)
	// Durability gates VISIBILITY as well as replication and the
	// acknowledgment: the fsync runs before the install so no read or
	// dependency check can observe a version a crash could still take
	// back, the update is enqueued only after the real fsync (never ship
	// what the origin could lose), and same-partition dependencies keep
	// launching no later than their dependents.
	if s.cfg.Durable != nil {
		fs := time.Now()
		err := wal.AppendAndSync(s.cfg.Durable, []wal.Record{{
			Key: m.Key, Value: m.Value, TS: ts, SrcDC: uint8(s.cfg.DC), Deps: m.Deps,
		}})
		fsyncDur = time.Since(fs)
		if err != nil {
			transport.RespondError(s.node, src, reqID, 500, "cops: wal: "+err.Error())
			return
		}
	}
	s.install(m.Key, version{value: m.Value, ts: ts, srcDC: uint8(s.cfg.DC), deps: m.Deps})
	s.repl.Enqueue(&wire.LoRepUpdate{
		SrcDC:   uint8(s.cfg.DC),
		SrcPart: uint32(s.cfg.Part),
		Key:     m.Key,
		Value:   m.Value,
		TS:      ts,
		Deps:    m.Deps,
	})
	_ = s.node.Respond(src, reqID, &wire.LoPutResp{TS: ts})
}

func (s *Server) install(key string, v version) {
	s.store.install(key, v)
	s.deps.Installed()
}

// handleRepUpdate installs a replicated version after its dependencies are
// present in this DC. A failed or shutdown-aborted dependency check
// withholds the install and the ack; the origin retries the (idempotent)
// update.
func (s *Server) handleRepUpdate(src wire.From, reqID uint64, m *wire.LoRepUpdate) {
	start := time.Now()
	var depDur, fsyncDur time.Duration
	defer func() {
		s.repAges.Note(int(m.SrcDC))
		total := time.Since(start)
		s.ops.Rep.Record(total)
		s.slow.Record(metrics.SlowOp{
			Start: start.UnixNano(), Op: "rep", KeyHash: metrics.KeyHash(m.Key),
			Total: total, Queue: depDur, Fsync: fsyncDur,
		})
	}()
	err := s.deps.WaitAll(m.Deps)
	depDur = time.Since(start)
	if err != nil {
		transport.RespondError(s.node, src, reqID, 500, "cops: dep check: "+err.Error())
		return
	}
	s.clock.Update(m.TS)
	// Durability before visibility and before the ack, waiting for the
	// real fsync even in background-sync mode: a pre-fsync install could
	// clear dependency checks a crash then invalidates, and the ack
	// advances the origin's durable cursor, which must never outrun our
	// own durability. An unacked update is retried idempotently.
	if s.cfg.Durable != nil {
		fs := time.Now()
		err := wal.AppendAndSync(s.cfg.Durable, []wal.Record{{
			Key: m.Key, Value: m.Value, TS: m.TS, SrcDC: m.SrcDC, Deps: m.Deps,
		}})
		fsyncDur = time.Since(fs)
		if err != nil {
			transport.RespondError(s.node, src, reqID, 500, "cops: wal: "+err.Error())
			return
		}
	}
	s.install(m.Key, version{value: m.Value, ts: m.TS, srcDC: m.SrcDC, deps: m.Deps})
	_ = s.node.Respond(src, reqID, &wire.LoRepAck{Seq: m.Seq})
}

// Client is a COPS-GT session. Unlike CC-LO's nearest-dependency contexts,
// COPS-GT contexts are never collapsed by a PUT: the two-round ROT's cut
// computation is only sound when a version's stored dependency list
// per-key dominates its entire transitive dependency closure, which
// requires carrying the full accumulated set (the metadata growth the
// paper's Table 2 writes as |deps|).
type Client struct {
	family.Base // node, Ping/Warm/Close/Addr, Busy-retry counter

	dc   int
	ring ring.Ring

	mu   sync.Mutex
	deps map[string]wire.LoDep
}

// ClientConfig parameterizes a COPS client session.
type ClientConfig struct {
	DC   int
	ID   int
	Ring ring.Ring
}

// NewClient attaches a COPS client to net at its own address.
func NewClient(cfg ClientConfig, net transport.Network) (*Client, error) {
	return newClient(cfg, func(h transport.Handler) (transport.Node, error) {
		return net.Attach(wire.ClientAddr(cfg.DC, cfg.ID), h)
	})
}

// NewSessionClient runs the client as logical session id on mux, sharing
// the mux's connection pool with any number of sibling sessions.
func NewSessionClient(cfg ClientConfig, mux transport.Mux, id wire.SessionID) (*Client, error) {
	return newClient(cfg, func(h transport.Handler) (transport.Node, error) {
		return mux.Session(id, h)
	})
}

func newClient(cfg ClientConfig, attach func(transport.Handler) (transport.Node, error)) (*Client, error) {
	c := &Client{dc: cfg.DC, ring: cfg.Ring, deps: make(map[string]wire.LoDep)}
	node, err := attach(transport.HandlerFunc(
		func(transport.Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		return nil, err
	}
	c.Init(node, cfg.DC, cfg.Ring.Parts())
	return c, nil
}

// DepCount returns the size of the session's dependency set (tests; this
// is the metadata COPS-GT cannot prune).
func (c *Client) DepCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.deps)
}

func (c *Client) depList() []wire.LoDep {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.LoDep, 0, len(c.deps))
	for _, d := range c.deps {
		out = append(out, d)
	}
	return out
}

func (c *Client) observe(key string, ts uint64, src uint8) {
	c.mu.Lock()
	if prev, ok := c.deps[key]; !ok || ts > prev.TS || (ts == prev.TS && src > prev.Src) {
		c.deps[key] = wire.LoDep{Key: key, TS: ts, Src: src}
	}
	c.mu.Unlock()
}

// Put installs a new version of key carrying the session's dependencies.
func (c *Client) Put(ctx context.Context, key string, value []byte) (uint64, error) {
	resp, err := c.Call(ctx, c.ring.Owner(key), &wire.LoPutReq{Key: key, Value: value, Deps: c.depList()})
	if err != nil {
		return 0, fmt.Errorf("cops: put %q: %w", key, err)
	}
	pr, ok := resp.(*wire.LoPutResp)
	if !ok {
		return 0, fmt.Errorf("cops: put %q: unexpected response %T", key, resp)
	}
	c.observe(key, pr.TS, uint8(c.dc))
	return pr.TS, nil
}

// Get reads one key causally.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	kvs, err := c.ROT(ctx, []string{key})
	if err != nil {
		return nil, err
	}
	return kvs[0].Value, nil
}

// ROT executes COPS' two-round read-only transaction: read the latest
// versions with their dependencies, compute the causal cut, and — only
// when the first round straddles a write — fetch the cut's exact versions
// in a second round.
func (c *Client) ROT(ctx context.Context, keys []string) ([]wire.KV, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	groups := c.ring.Group(keys)
	inSet := make(map[string]bool, len(keys))
	for _, k := range keys {
		inSet[k] = true
	}

	// Round 1: latest versions + dependency lists.
	type r1 struct {
		vals []wire.DepKV
		err  error
	}
	ch := make(chan r1, len(groups))
	for p, ks := range groups {
		go func(p int, ks []string) {
			resp, err := c.Call(ctx, p, &wire.CopsRotReq{Keys: ks})
			if err != nil {
				ch <- r1{err: err}
				return
			}
			rr, ok := resp.(*wire.CopsRotResp)
			if !ok {
				ch <- r1{err: fmt.Errorf("unexpected response %T", resp)}
				return
			}
			ch <- r1{vals: rr.Vals}
		}(p, ks)
	}
	got := make(map[string]wire.DepKV, len(keys))
	for range groups {
		r := <-ch
		if r.err != nil {
			return nil, fmt.Errorf("cops: rot round 1: %w", r.err)
		}
		for _, v := range r.vals {
			got[v.KV.Key] = v
			// Inherit the read version's dependency list into the session
			// context. Stored lists dominate a version's transitive closure
			// only because every observer folds them in: without this, a
			// session that read X (which depends on k@ts) but never k could
			// write a version whose stored deps omit k@ts, and a later
			// two-round ROT over {that version, k} would miss the causal
			// cut — the gap the checker's writes-follow-reads test catches.
			for _, d := range v.Deps {
				c.observe(d.Key, d.TS, d.Src)
			}
		}
	}

	// Causal cut: the newest version of each read key that any returned
	// version depends on. LWW order (TS, Src) decides "newer": an
	// equal-timestamp dependency from a higher DC is a different, newer
	// version than the one round 1 returned.
	lwwAfter := func(ts uint64, src uint8, ts2 uint64, src2 uint8) bool {
		return ts > ts2 || (ts == ts2 && src > src2)
	}
	cut := make(map[string]wire.LoDep)
	for _, v := range got {
		for _, d := range v.Deps {
			if !inSet[d.Key] {
				continue
			}
			cur := got[d.Key].KV
			if lwwAfter(d.TS, d.Src, cur.TS, cur.Src) {
				if prev, ok := cut[d.Key]; !ok || lwwAfter(d.TS, d.Src, prev.TS, prev.Src) {
					cut[d.Key] = d
				}
			}
		}
	}

	// Round 2 (only when needed): fetch the cut's exact versions.
	if len(cut) > 0 {
		type r2 struct {
			val wire.KV
			err error
		}
		ch2 := make(chan r2, len(cut))
		for k, d := range cut {
			go func(k string, d wire.LoDep) {
				resp, err := c.Call(ctx, c.ring.Owner(k), &wire.CopsVerReq{Key: k, TS: d.TS, Src: d.Src})
				if err != nil {
					ch2 <- r2{err: err}
					return
				}
				vr, ok := resp.(*wire.CopsVerResp)
				if !ok {
					ch2 <- r2{err: fmt.Errorf("unexpected response %T", resp)}
					return
				}
				ch2 <- r2{val: vr.Val}
			}(k, d)
		}
		for range cut {
			r := <-ch2
			if r.err != nil {
				return nil, fmt.Errorf("cops: rot round 2: %w", r.err)
			}
			if r.val.TS > 0 {
				// A miss cannot happen when the cut identity is real (the
				// version carrying the dependency installed after it), but
				// never replace a served version with emptiness.
				prev := got[r.val.Key]
				prev.KV = r.val
				got[r.val.Key] = prev
			}
		}
	}

	out := make([]wire.KV, len(keys))
	for i, k := range keys {
		out[i] = got[k].KV
		if out[i].TS > 0 {
			c.observe(k, out[i].TS, out[i].Src)
		}
	}
	return out, nil
}

// Rounds2Needed is exposed for tests: it reports whether the given round-1
// results would require a second round (LWW identity order).
func Rounds2Needed(vals map[string]wire.DepKV) bool {
	for _, v := range vals {
		for _, d := range v.Deps {
			if other, ok := vals[d.Key]; ok &&
				(d.TS > other.KV.TS || (d.TS == other.KV.TS && d.Src > other.KV.Src)) {
				return true
			}
		}
	}
	return false
}
