package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/family"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Client is a session against the timestamp-based engine. It tracks the
// causal context of Section 4: the highest local timestamp and the highest
// GSS it has observed, piggybacked on every operation so the client sees
// monotonically increasing snapshots (and its own writes).
//
// A Client is safe for concurrent use, though the benchmark drivers use one
// per closed-loop thread, as the paper's clients do.
type Client struct {
	family.Base // node, Ping/Warm/Close/Addr, Busy-retry counter

	dc     int
	numDCs int
	mode   ROTMode
	ring   ring.Ring

	mu   sync.Mutex
	seen vclock.Vec // seen[dc] = highest local ts; others = GSS view

	rotSeq atomic.Uint64
	rots   sync.Map // rotID -> chan wire.Message
}

// ClientConfig parameterizes a client session.
type ClientConfig struct {
	DC     int
	ID     int
	NumDCs int
	Ring   ring.Ring
	Mode   ROTMode
}

// NewClient attaches a client session to net at its own address (one
// endpoint — on TCP, one socket set — per client).
func NewClient(cfg ClientConfig, net transport.Network) (*Client, error) {
	return newClient(cfg, func(h transport.Handler) (transport.Node, error) {
		return net.Attach(wire.ClientAddr(cfg.DC, cfg.ID), h)
	})
}

// NewSessionClient runs the client as logical session id on mux: every
// frame it sends carries the session id, and the 1 1/2-round ROT's direct
// partition-to-client answers are demultiplexed back to this client even
// though any number of sessions share the mux's connection pool.
func NewSessionClient(cfg ClientConfig, mux transport.Mux, id wire.SessionID) (*Client, error) {
	return newClient(cfg, func(h transport.Handler) (transport.Node, error) {
		return mux.Session(id, h)
	})
}

func newClient(cfg ClientConfig, attach func(transport.Handler) (transport.Node, error)) (*Client, error) {
	if cfg.Mode == 0 {
		cfg.Mode = OneAndHalfRounds
	}
	c := &Client{
		dc:     cfg.DC,
		numDCs: max(cfg.NumDCs, 1),
		mode:   cfg.Mode,
		ring:   cfg.Ring,
		seen:   vclock.New(max(cfg.NumDCs, 1)),
	}
	node, err := attach(transport.HandlerFunc(c.handle))
	if err != nil {
		return nil, err
	}
	c.Init(node, cfg.DC, cfg.Ring.Parts())
	return c, nil
}

// Seen returns a copy of the client's causal context (for tests).
func (c *Client) Seen() vclock.Vec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen.Clone()
}

// handle routes direct server-to-client ROT messages (1 1/2-round mode).
// A shed coordinator request comes back as a one-way Busy whose Echo
// carries the RotID (the request was un-awaited, so there is no reqID to
// answer), and a refused leg as a RotRefused; both are routed to the same
// waiter, which retries the whole ROT.
func (c *Client) handle(_ transport.Node, _ wire.From, _ uint64, m wire.Message) {
	var rotID uint64
	switch msg := m.(type) {
	case *wire.RotSnap:
		rotID = msg.RotID
	case *wire.RotVals:
		rotID = msg.RotID
	case *wire.RotRefused:
		rotID = msg.RotID
	case *wire.Busy:
		rotID = msg.Echo
	default:
		return
	}
	if ch, ok := c.rots.Load(rotID); ok {
		select {
		case ch.(chan wire.Message) <- m:
		default:
		}
	}
}

func (c *Client) observe(sv vclock.Vec) {
	c.mu.Lock()
	c.seen.MaxInto(sv)
	c.mu.Unlock()
}

// Put installs a new version of key and returns its timestamp.
func (c *Client) Put(ctx context.Context, key string, value []byte) (uint64, error) {
	c.mu.Lock()
	deps := c.seen.Clone()
	c.mu.Unlock()
	resp, err := c.Call(ctx, c.ring.Owner(key), &wire.PutReq{Key: key, Value: value, Deps: deps})
	if err != nil {
		return 0, fmt.Errorf("core: put %q: %w", key, err)
	}
	pr, ok := resp.(*wire.PutResp)
	if !ok {
		return 0, fmt.Errorf("core: put %q: unexpected response %T", key, resp)
	}
	c.mu.Lock()
	c.seen.MaxInto(pr.GSS)
	c.seen[c.dc] = max(c.seen[c.dc], pr.TS)
	c.mu.Unlock()
	return pr.TS, nil
}

// Get reads a single key causally (a one-key ROT).
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	kvs, err := c.ROT(ctx, []string{key})
	if err != nil {
		return nil, err
	}
	return kvs[0].Value, nil
}

// snapshotRetries bounds how often one ROT is retried after a refusal. The
// backoff starts at a stabilization period and doubles to
// transport.BusyBackoff's cap, so the budget spans a few hundred
// milliseconds of GSS progress; exhausting it (family.ErrSnapshotTooOld)
// means the partition's GSS stood still (a stalled stabilizer) while the
// key was written past the store's count ceiling.
const snapshotRetries = 10

// ROT executes a causally consistent read-only transaction over keys and
// returns one KV per key, in key order. A missing key yields a nil Value.
//
// A leg refused because the key's chain was trimmed past the snapshot (see
// mvstore) aborts the attempt: the client folds the refusing partition's
// trim frontier into its causal context and retries the whole transaction
// with a fresh id and snapshot, never answering from a snapshot it could
// not read exactly.
func (c *Client) ROT(ctx context.Context, keys []string) ([]wire.KV, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	groups := c.groups(keys)
	once := c.rotOneAndHalf
	if c.mode == TwoRounds {
		once = c.rotTwoRounds
	}
	busy, refused := 0, 0
	for {
		vals, again, err := once(ctx, keys, groups)
		if err != nil {
			return nil, err
		}
		switch m := again.(type) {
		case nil:
			out := make([]wire.KV, len(keys))
			for i, k := range keys {
				if kv, ok := vals[k]; ok {
					out[i] = kv
				} else {
					out[i] = wire.KV{Key: k}
				}
			}
			return out, nil
		case *wire.Busy:
			if busy >= transport.DefaultBusyRetries {
				return nil, fmt.Errorf("core: rot: %w: coordinator still shedding after %d retries", transport.ErrOverloaded, busy)
			}
			c.CountRetry()
			err = transport.AwaitRetry(ctx, busy, m.RetryAfter())
			busy++
		case *wire.RotRefused:
			if refused >= snapshotRetries {
				return nil, fmt.Errorf("core: rot: %w: refused after %d retries", family.ErrSnapshotTooOld, refused)
			}
			c.observe(m.Frontier)
			err = transport.AwaitRetry(ctx, refused, stabilizePeriod)
			refused++
		}
		if err != nil {
			return nil, fmt.Errorf("core: rot: %w", err)
		}
	}
}

// groups splits keys by partition into a deterministic order; the first
// group's partition acts as coordinator.
func (c *Client) groups(keys []string) []wire.ReadGroup {
	m := c.ring.Group(keys)
	parts := make([]int, 0, len(m))
	for p := range m {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	// Rotate so coordination load spreads over partitions: the owner of
	// the first key coordinates.
	lead := c.ring.Owner(keys[0])
	groups := make([]wire.ReadGroup, 0, len(parts))
	groups = append(groups, wire.ReadGroup{Part: uint32(lead), Keys: m[lead]})
	for _, p := range parts {
		if p != lead {
			groups = append(groups, wire.ReadGroup{Part: uint32(p), Keys: m[p]})
		}
	}
	return groups
}

// rotOneAndHalf runs one attempt of the 1 1/2-round ROT. The coordinator
// request is a one-way Send (the responses come straight from the
// partitions), so a shed comes back as a one-way Busy routed by
// Echo==RotID, and a refused leg as a RotRefused in place of its values;
// either is returned for ROT to retry on.
func (c *Client) rotOneAndHalf(ctx context.Context, keys []string, groups []wire.ReadGroup) (map[string]wire.KV, wire.Message, error) {
	rotID := c.rotSeq.Add(1)
	ch := make(chan wire.Message, len(groups))
	c.rots.Store(rotID, ch)
	defer c.rots.Delete(rotID)

	c.mu.Lock()
	seenLocal := c.seen[c.dc]
	seenGSS := c.seen.Clone()
	c.mu.Unlock()

	err := c.Send(int(groups[0].Part), &wire.RotCoordReq{
		RotID:     rotID,
		Mode:      uint8(OneAndHalfRounds),
		SeenLocal: seenLocal,
		SeenGSS:   seenGSS,
		Groups:    groups,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: rot: %w", err)
	}

	vals := make(map[string]wire.KV, len(keys))
	var sv vclock.Vec
	for got := 0; got < len(groups); got++ {
		select {
		case m := <-ch:
			switch msg := m.(type) {
			case *wire.RotSnap:
				sv = msg.SV
				for _, kv := range msg.Vals {
					vals[kv.Key] = kv
				}
			case *wire.RotVals:
				for _, kv := range msg.Vals {
					vals[kv.Key] = kv
				}
			case *wire.Busy, *wire.RotRefused:
				return nil, msg, nil
			}
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("core: rot: %w", ctx.Err())
		}
	}
	if sv != nil {
		c.observe(sv)
	}
	return vals, nil, nil
}

// rotTwoRounds runs one attempt of the 2-round ROT; a refused leg's error
// response is returned for ROT to retry on.
func (c *Client) rotTwoRounds(ctx context.Context, keys []string, groups []wire.ReadGroup) (map[string]wire.KV, wire.Message, error) {
	rotID := c.rotSeq.Add(1)
	c.mu.Lock()
	seenLocal := c.seen[c.dc]
	seenGSS := c.seen.Clone()
	c.mu.Unlock()

	resp, err := c.Call(ctx, int(groups[0].Part), &wire.RotCoordReq{
		RotID:     rotID,
		Mode:      uint8(TwoRounds),
		SeenLocal: seenLocal,
		SeenGSS:   seenGSS,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: rot coord: %w", err)
	}
	cr, ok := resp.(*wire.RotCoordResp)
	if !ok {
		return nil, nil, fmt.Errorf("core: rot coord: unexpected response %T", resp)
	}
	sv := cr.SV

	type result struct {
		vals []wire.KV
		err  error
	}
	ch := make(chan result, len(groups))
	for _, g := range groups {
		go func(g wire.ReadGroup) {
			resp, err := c.Call(ctx, int(g.Part), &wire.RotReadReq{SV: sv, Keys: g.Keys})
			if err != nil {
				ch <- result{err: err}
				return
			}
			rr, ok := resp.(*wire.RotReadResp)
			if !ok {
				ch <- result{err: fmt.Errorf("unexpected response %T", resp)}
				return
			}
			ch <- result{vals: rr.Vals}
		}(g)
	}
	vals := make(map[string]wire.KV, len(keys))
	for range groups {
		r := <-ch
		var refused *wire.RotRefused
		if errors.As(r.err, &refused) {
			return nil, refused, nil
		}
		if r.err != nil {
			return nil, nil, fmt.Errorf("core: rot read: %w", r.err)
		}
		for _, kv := range r.vals {
			vals[kv.Key] = kv
		}
	}
	c.observe(sv)
	return vals, nil, nil
}
