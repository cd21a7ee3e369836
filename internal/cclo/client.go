package cclo

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/family"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Client is a CC-LO session. It tracks COPS-style nearest dependencies:
// after a PUT the context collapses to that PUT (the new version subsumes
// everything before it); every read adds the read version. The dependency
// list is what PUTs carry and what the readers check walks — its growth
// with reads between writes is the "C2 reads other keys from partitions
// pi" effect of Section 3.
//
// The context is a set of version identities, not one version per key: a
// read that returns a newer version of a key already in the context keeps
// the older one too. The newer version may be concurrent with it, so it
// need not carry the older one's causal past, and the next PUT's collapse
// would otherwise drop that past from the session.
type Client struct {
	family.Base // node, Ping/Warm/Close/Addr, Get, retry counters, ROT retry loop

	dc     int
	id     int
	ring   ring.Ring
	rotSeq atomic.Uint64

	// legGate, when non-nil, runs before each ROT leg is sent (tests use it
	// to hold one leg while a partition is crashed and restarted, making
	// the straddle deterministic).
	legGate func(part int)

	mu     sync.Mutex
	deps   map[wire.LoDep]struct{} // nearest dependencies: versions read or written since the last PUT
	seenTS uint64                  // Lamport high-water mark over everything observed
	epochs []uint64                // newest known restart epoch per partition
}

// ClientConfig parameterizes a CC-LO client session. ID must be unique
// among live clients of the same DC, whichever mux they share: it seeds
// the high bits of every rot id, which the readers check records
// server-side, so two live clients sharing (DC, ID) would conflate their
// ROTs' reader records.
type ClientConfig struct {
	DC   int
	ID   int
	Ring ring.Ring
}

// NewSessionClient runs the client as logical session id on mux, sharing
// the mux's connections with any number of sibling sessions. cfg.ID
// must still be unique per DC (rot identity); callers typically allocate
// the session id from the same space.
func NewSessionClient(cfg ClientConfig, mux transport.Mux, id wire.SessionID) (*Client, error) {
	node, err := mux.Session(id, transport.HandlerFunc(
		func(transport.Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		return nil, err
	}
	c := &Client{
		dc:   cfg.DC,
		id:   cfg.ID,
		ring: cfg.Ring,
		deps: make(map[wire.LoDep]struct{}),
	}
	c.Init(node, cfg.DC, cfg.Ring.Parts(), c.ROT)
	return c, nil
}

// DepCount returns the current number of nearest dependencies (tests).
func (c *Client) DepCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.deps)
}

func (c *Client) depList() []wire.LoDep {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]wire.LoDep, 0, len(c.deps))
	for d := range c.deps {
		out = append(out, d)
	}
	return out
}

// Put installs a new version of key and returns its timestamp. The write
// carries the session's nearest dependencies; afterwards the context is
// just this write.
func (c *Client) Put(ctx context.Context, key string, value []byte) (uint64, error) {
	deps := c.depList()
	resp, err := c.Call(ctx, c.ring.Owner(key), &wire.LoPutReq{Key: key, Value: value, Deps: deps})
	if err != nil {
		return 0, fmt.Errorf("cclo: put %q: %w", key, err)
	}
	pr, ok := resp.(*wire.LoPutResp)
	if !ok {
		return 0, fmt.Errorf("cclo: put %q: unexpected response %T", key, resp)
	}
	c.mu.Lock()
	clear(c.deps)
	c.deps[wire.LoDep{Key: key, TS: pr.TS, Src: uint8(c.dc)}] = struct{}{}
	c.seenTS = max(c.seenTS, pr.TS)
	c.mu.Unlock()
	return pr.TS, nil
}

// maxFenceRetries bounds epoch-fence retries per ROT: each retry means a
// partition finished a crash recovery while the ROT was in flight, so more
// than a few in a row is a cluster in a restart loop, not a race to mask.
// The same bound caps retries after a refused leg, which the fresh id alone
// gets past: marks hide versions from the ids they name.
const maxFenceRetries = 3

// ROT executes CC-LO's one-round read-only transaction: one request to
// each involved partition, no coordinator, no second round, no blocking.
//
// Restart-epoch fence: each leg's response carries the serving partition's
// epoch vector. If some leg returns a NEWER epoch for partition p than p's
// own leg reported, p completed a crash recovery while this ROT was in
// flight — the reader records p kept for this ROT's already-served legs
// (its rewind protection against concurrent dependent writes) died with
// the crash, and the legs served after the restart may already reflect
// writes that skipped them. The whole ROT aborts and retries under a fresh
// id against the new epoch: one extra round, paid only in the
// crash-recovery corner case, so steady-state reads stay one round
// (latency optimality intact). Single-partition ROTs are served atomically
// by one handler and cannot straddle anything; they skip the check.
//
// A leg refused with wire.RotRefused — the version this ROT had to be
// served was trimmed — retries the whole ROT the same way; past
// maxFenceRetries refusals the ROT fails with family.ErrSnapshotTooOld. It
// is never answered from an approximate read.
func (c *Client) ROT(ctx context.Context, keys []string) ([]wire.KV, error) {
	kvs, err := c.Base.ROT(ctx, keys, family.RotRetry{Refusals: maxFenceRetries, Fences: maxFenceRetries},
		func() (map[string]wire.KV, error) { return c.rotOnce(ctx, keys) })
	if err != nil {
		return nil, fmt.Errorf("cclo: rot: %w", err)
	}
	return kvs, nil
}

// rotOnce runs one ROT attempt: a fresh rot id, one leg per partition, all
// in parallel. Session epoch knowledge is merged in even when the attempt
// is fenced (family.ErrFenced) — the retry runs against the newest epochs.
// Only an attempt that passes the fence extends the nearest-dependency set
// and the session's Lamport high-water mark with what it read.
func (c *Client) rotOnce(ctx context.Context, keys []string) (map[string]wire.KV, error) {
	groups := c.ring.Group(keys)
	// Rot identity comes from (DC, ID), not the attached address: sessions
	// multiplexed over one endpoint share an address, but each still needs
	// globally distinct rot ids for its server-side reader records.
	rotID := uint64(wire.ClientAddr(c.dc, c.id))<<32 | (c.rotSeq.Add(1) & 0xFFFFFFFF)
	c.mu.Lock()
	seen := c.seenTS
	known := append([]uint64(nil), c.epochs...)
	c.mu.Unlock()

	type result struct {
		part   int
		vals   []wire.KV
		epochs []uint64
		err    error
	}
	ch := make(chan result, len(groups))
	for p, ks := range groups {
		go func(p int, ks []string) {
			if c.legGate != nil {
				c.legGate(p)
			}
			resp, err := c.Call(ctx, p, &wire.LoRotReq{RotID: rotID, SeenTS: seen, Epochs: known, Keys: ks})
			if err != nil {
				ch <- result{part: p, err: err}
				return
			}
			rr, ok := resp.(*wire.LoRotResp)
			if !ok {
				ch <- result{part: p, err: fmt.Errorf("unexpected response %T", resp)}
				return
			}
			ch <- result{part: p, vals: rr.Vals, epochs: rr.Epochs}
		}(p, ks)
	}
	vals := make(map[string]wire.KV, len(keys))
	legEpochs := make(map[int][]uint64, len(groups))
	var firstErr error
	for range groups {
		r := <-ch
		if r.err == nil {
			r.err = wire.Label(vals, groups[r.part], r.vals)
		}
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		legEpochs[r.part] = r.epochs
	}
	c.mergeEpochs(legEpochs)
	if firstErr != nil {
		return nil, firstErr
	}
	if fenceTripped(legEpochs) {
		return nil, family.ErrFenced
	}
	c.mu.Lock()
	for _, kv := range vals {
		if kv.TS > 0 {
			c.deps[wire.LoDep{Key: kv.Key, TS: kv.TS, Src: kv.Src}] = struct{}{}
		}
		c.seenTS = max(c.seenTS, kv.TS)
	}
	c.mu.Unlock()
	return vals, nil
}

// mergeEpochs folds every leg's vector into the session's known epochs.
func (c *Client) mergeEpochs(legEpochs map[int][]uint64) {
	c.mu.Lock()
	for _, vec := range legEpochs {
		if len(vec) > len(c.epochs) {
			c.epochs = append(c.epochs, make([]uint64, len(vec)-len(c.epochs))...)
		}
		for i, e := range vec {
			if e > c.epochs[i] {
				c.epochs[i] = e
			}
		}
	}
	c.mu.Unlock()
}

// fenceTripped reports whether any leg observed a newer restart epoch for
// a contacted partition than that partition's own leg reported — the
// signature of a ROT that straddled a crash recovery. Comparisons run only
// over contacted partitions: a restart elsewhere cannot have destroyed
// records about THIS rot id, because reads record only where they land.
func fenceTripped(legEpochs map[int][]uint64) bool {
	if len(legEpochs) < 2 {
		return false
	}
	for p, own := range legEpochs {
		if p >= len(own) {
			continue
		}
		self := own[p]
		for q, other := range legEpochs {
			if q == p || p >= len(other) {
				continue
			}
			if other[p] > self {
				return true
			}
		}
	}
	return false
}
