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
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/family"
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
// per-version payload; latest/at/forEachLatest (and eng.Has) are lock-free.
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

func (s *store) forEachLatest(fn func(key string, v version)) {
	s.eng.ForEach(func(key string, c *storeeng.Chain[[]wire.LoDep]) bool {
		fn(key, fromEngine(c.Latest()))
		return true
	})
}

// installRecord installs the version a WAL record describes — dependency
// list included, which COPS needs to recompute causal cuts after a crash.
func (s *store) installRecord(rec wal.Record, _ []wire.ReaderEntry) {
	s.install(rec.Key, version{value: rec.Value, ts: rec.TS, srcDC: rec.SrcDC, deps: rec.Deps})
}

// snapshot emits every key's latest version with its dependency list.
func (s *store) snapshot(emit func(wal.Record) error) error {
	var ferr error
	s.forEachLatest(func(key string, v version) {
		if ferr != nil {
			return
		}
		ferr = emit(wal.Record{Key: key, Value: v.value, TS: v.ts, SrcDC: v.srcDC, Deps: v.deps})
	})
	return ferr
}

// Server is one COPS partition replica: the dependency-list skeleton
// (clock, commit path, replication, recovery — internal/family) plus COPS'
// store and its two read rounds. It has no pre-commit step.
type Server struct {
	*family.LoServer
	store *store
}

// NewServer builds the partition server and attaches it to net.
func NewServer(cfg Config, net transport.Network) (*Server, error) {
	cfg = cfg.withDefaults()
	st := newStore(cfg.MaxVersions, 0)
	s := &Server{store: st}
	s.LoServer = family.NewLoServer("cops", cfg.DC, cfg.Part, cfg.NumDCs, cfg.NumParts, cfg.Durable, cfg.Slow,
		family.LoStore{HasVersion: st.eng.Has, Install: st.installRecord, Snapshot: st.snapshot, Seal: st.eng.Seal, Register: st.eng.Register})
	if _, err := s.Replay(); err != nil {
		return nil, err
	}
	if err := s.Attach(net, s.dispatch); err != nil {
		return nil, err
	}
	return s, nil
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

// dispatch is the partition's message switch (see family.Partition.Handle).
func (s *Server) dispatch(src wire.From, reqID uint64, m wire.Message) (family.Op, bool) {
	switch msg := m.(type) {
	case *wire.CopsRotReq:
		return s.handleRot(src, reqID, msg), true
	case *wire.CopsVerReq:
		return s.handleVer(src, reqID, msg), true
	case *wire.LoPutReq:
		return s.handlePut(src, reqID, msg), true
	case *wire.LoRepUpdate:
		return s.handleRepUpdate(src, reqID, msg), true
	}
	return family.Op{}, false
}

// handleRot serves the first ROT round: latest versions with their
// dependency lists (the metadata COPS reads pay for).
func (s *Server) handleRot(src wire.From, reqID uint64, m *wire.CopsRotReq) family.Op {
	vals := make([]wire.DepKV, len(m.Keys))
	for i, k := range m.Keys {
		if v, ok := s.store.latest(k); ok {
			vals[i] = wire.DepKV{
				KV:   wire.KV{Value: v.value, TS: v.ts, Src: v.srcDC},
				Deps: v.deps,
			}
		}
	}
	_ = s.Node.Respond(src, reqID, &wire.CopsRotResp{Vals: vals})
	return family.Read(m.Keys)
}

// handleVer serves the second ROT round: a specific version.
func (s *Server) handleVer(src wire.From, reqID uint64, m *wire.CopsVerReq) family.Op {
	var val wire.KV
	if v, ok := s.store.at(m.Key, m.TS, m.Src); ok {
		val = wire.KV{Value: v.value, TS: v.ts, Src: v.srcDC}
	}
	_ = s.Node.Respond(src, reqID, &wire.CopsVerResp{Val: val})
	return family.Op{Kind: family.OpRead, Key: m.Key, Keys: 1}
}

// handlePut installs a new version carrying the client's dependency set.
// COPS writes are one round trip with no server-to-server communication in
// the local DC — the cheap-writes end of the paper's design space.
func (s *Server) handlePut(src wire.From, reqID uint64, m *wire.LoPutReq) family.Op {
	return s.CommitLocal(src, reqID, m, 0, nil)
}

// handleRepUpdate installs a replicated version, dependency list and all,
// once its dependencies are present in this DC — with no readers check:
// COPS predates latency optimality.
func (s *Server) handleRepUpdate(src wire.From, reqID uint64, m *wire.LoRepUpdate) family.Op {
	if !s.WaitDeps(src, reqID, m) {
		return family.Op{}
	}
	return s.CommitRemote(src, reqID, m,
		wal.Record{Key: m.Key, Value: m.Value, TS: m.TS, SrcDC: m.SrcDC, Deps: m.Deps}, 0, nil)
}

// Client is a COPS-GT session. Unlike CC-LO's nearest-dependency contexts,
// COPS-GT contexts are never collapsed by a PUT: the two-round ROT's cut
// computation is only sound when a version's stored dependency list
// per-key dominates its entire transitive dependency closure, which
// requires carrying the full accumulated set (the metadata growth the
// paper's Table 2 writes as |deps|).
type Client struct {
	family.Base // node, Ping/Warm/Close/Addr, Get, retry counters

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

// NewSessionClient runs the client as logical session id on mux, sharing
// the mux's connections with any number of sibling sessions.
func NewSessionClient(cfg ClientConfig, mux transport.Mux, id wire.SessionID) (*Client, error) {
	node, err := mux.Session(id, transport.HandlerFunc(
		func(transport.Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		return nil, err
	}
	c := &Client{dc: cfg.DC, ring: cfg.Ring, deps: make(map[string]wire.LoDep)}
	c.Init(node, cfg.DC, cfg.Ring.Parts(), c.ROT)
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
	pr, err := family.As[*wire.LoPutResp](c.Call(ctx, c.ring.Owner(key), &wire.LoPutReq{Key: key, Value: value, Deps: c.depList()}))
	if err != nil {
		return 0, fmt.Errorf("cops: put %q: %w", key, err)
	}
	c.observe(key, pr.TS, uint8(c.dc))
	return pr.TS, nil
}

// ROT executes COPS' two-round read-only transaction as Base.ROT's
// attempt (rotOnce). COPS never refuses or fences a ROT, so only shedding
// retries it.
func (c *Client) ROT(ctx context.Context, keys []string) ([]wire.KV, error) {
	kvs, err := c.Base.ROT(ctx, keys, family.RotRetry{},
		func() (map[string]wire.KV, error) { return c.rotOnce(ctx, keys) })
	if err != nil {
		return nil, fmt.Errorf("cops: rot: %w", err)
	}
	return kvs, nil
}

// rotOnce is one ROT attempt: read the latest versions with their
// dependencies, compute the causal cut, and — only when the first round
// straddles a write — fetch the cut's exact versions in a second round.
func (c *Client) rotOnce(ctx context.Context, keys []string) (map[string]wire.KV, error) {
	// Round 1: latest versions + dependency lists, one leg per partition.
	shares := ring.Split(c.ring, keys, ring.Key, -1)
	got := make(map[string]wire.DepKV, len(keys))
	err := family.Fan(ctx, len(shares), func(ctx context.Context, i int) (*wire.CopsRotResp, error) {
		return family.As[*wire.CopsRotResp](c.Call(ctx, shares[i].Part, &wire.CopsRotReq{Keys: shares[i].Items}))
	}, func(i int, rr *wire.CopsRotResp) error {
		ks := shares[i].Items
		if err := wire.CheckCount(len(ks), len(rr.Vals)); err != nil {
			return err
		}
		for j, v := range rr.Vals {
			v.KV.Key = ks[j]
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
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("round 1: %w", err)
	}

	// Round 2 (only when needed): fetch the cut's exact versions, one leg
	// per version, in key order.
	byKey := func(a, b wire.LoDep) int { return cmp.Compare(a.Key, b.Key) }
	if cut := slices.SortedFunc(maps.Values(causalCut(got)), byKey); len(cut) > 0 {
		err := family.Fan(ctx, len(cut), func(ctx context.Context, i int) (*wire.CopsVerResp, error) {
			d := cut[i]
			return family.As[*wire.CopsVerResp](c.Call(ctx, c.ring.Owner(d.Key), &wire.CopsVerReq{Key: d.Key, TS: d.TS, Src: d.Src}))
		}, func(i int, vr *wire.CopsVerResp) error {
			// A miss cannot happen when the cut identity is real (the
			// version carrying the dependency installed after it), but
			// never replace a served version with emptiness.
			if k := cut[i].Key; vr.Val.TS > 0 {
				vr.Val.Key = k
				prev := got[k]
				prev.KV = vr.Val
				got[k] = prev
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("round 2: %w", err)
		}
	}

	out := make(map[string]wire.KV, len(got))
	for k, v := range got {
		out[k] = v.KV
		if v.KV.TS > 0 {
			c.observe(k, v.KV.TS, v.KV.Src)
		}
	}
	return out, nil
}

// causalCut returns the versions a second round must fetch: for each read
// key that some round-1 version depends on at a newer version than round 1
// returned for it, the newest such dependency. LWW order (TS, Src) decides
// "newer": an equal-timestamp dependency from a higher DC is a different,
// newer version than the one round 1 returned. An empty cut means round 1
// already is a causal snapshot.
func causalCut(got map[string]wire.DepKV) map[string]wire.LoDep {
	lwwAfter := func(ts uint64, src uint8, ts2 uint64, src2 uint8) bool {
		return ts > ts2 || (ts == ts2 && src > src2)
	}
	cut := make(map[string]wire.LoDep)
	for _, v := range got {
		for _, d := range v.Deps {
			cur, read := got[d.Key]
			if !read || !lwwAfter(d.TS, d.Src, cur.KV.TS, cur.KV.Src) {
				continue
			}
			if prev, ok := cut[d.Key]; !ok || lwwAfter(d.TS, d.Src, prev.TS, prev.Src) {
				cut[d.Key] = d
			}
		}
	}
	return cut
}
