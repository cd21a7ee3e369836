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
	deps   map[string]wire.LoDep // nearest dependencies: key → version identity
	seenTS uint64                // Lamport high-water mark over everything observed
	epochs []uint64              // newest known restart epoch per partition
}

// ClientConfig parameterizes a CC-LO client session. ID must be unique
// among live clients of the same DC regardless of how the client attaches:
// it seeds the high bits of every rot id, which the readers check records
// server-side, so two live clients sharing (DC, ID) would conflate their
// ROTs' reader records.
type ClientConfig struct {
	DC   int
	ID   int
	Ring ring.Ring
}

// NewClient attaches a CC-LO client to net at its own address.
func NewClient(cfg ClientConfig, net transport.Network) (*Client, error) {
	return newClient(cfg, func(h transport.Handler) (transport.Node, error) {
		return net.Attach(wire.ClientAddr(cfg.DC, cfg.ID), h)
	})
}

// NewSessionClient runs the client as logical session id on mux, sharing
// the mux's connection pool with any number of sibling sessions. cfg.ID
// must still be unique per DC (rot identity); callers typically allocate
// it from the same space as plain client addresses.
func NewSessionClient(cfg ClientConfig, mux transport.Mux, id wire.SessionID) (*Client, error) {
	return newClient(cfg, func(h transport.Handler) (transport.Node, error) {
		return mux.Session(id, h)
	})
}

func newClient(cfg ClientConfig, attach func(transport.Handler) (transport.Node, error)) (*Client, error) {
	c := &Client{
		dc:   cfg.DC,
		id:   cfg.ID,
		ring: cfg.Ring,
		deps: make(map[string]wire.LoDep),
	}
	node, err := attach(transport.HandlerFunc(
		func(transport.Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		return nil, err
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
	for _, d := range c.deps {
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
	c.deps[key] = wire.LoDep{Key: key, TS: pr.TS, Src: uint8(c.dc)}
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
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		legEpochs[r.part] = r.epochs
		for _, kv := range r.vals {
			vals[kv.Key] = kv
		}
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
		if prev, ok := c.deps[kv.Key]; kv.TS > 0 && (!ok || kv.TS > prev.TS || (kv.TS == prev.TS && kv.Src > prev.Src)) {
			c.deps[kv.Key] = wire.LoDep{Key: kv.Key, TS: kv.TS, Src: kv.Src}
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
