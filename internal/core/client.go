package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	family.Base // node, Ping/Warm/Close/Addr, Get, retry counters, ROT retry loop

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

// NewSessionClient runs the client as logical session id on mux: every
// frame it sends carries the session id, and the 1 1/2-round ROT's direct
// partition-to-client answers are demultiplexed back to this client even
// though any number of sessions share the mux's connections.
func NewSessionClient(cfg ClientConfig, mux transport.Mux, id wire.SessionID) (*Client, error) {
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
	node, err := mux.Session(id, transport.HandlerFunc(c.handle))
	if err != nil {
		return nil, err
	}
	c.Init(node, cfg.DC, cfg.Ring.Parts(), c.ROT)
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
	attempt := c.rotOneAndHalf
	if c.mode == TwoRounds {
		attempt = c.rotTwoRounds
	}
	kvs, err := c.Base.ROT(ctx, keys, family.RotRetry{Refusals: snapshotRetries, Refused: c.refused},
		func() (map[string]wire.KV, error) { return attempt(ctx, keys) })
	if err != nil {
		return nil, fmt.Errorf("core: rot: %w", err)
	}
	return kvs, nil
}

// refused folds a refusal's trim frontier into the causal context, so the
// retried snapshot covers what the refusing partition retains, and backs off
// a stabilization period for the GSS to move.
func (c *Client) refused(m *wire.RotRefused) time.Duration {
	c.observe(m.Frontier)
	return stabilizePeriod
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
// either is returned as the attempt's error for ROT to retry on. Answers are
// positional: RotSnap's values answer the coordinator's group (the first),
// a RotVals' those of the group its Part names.
func (c *Client) rotOneAndHalf(ctx context.Context, keys []string) (map[string]wire.KV, error) {
	groups := c.groups(keys)
	rotID := c.rotSeq.Add(1)
	ch := make(chan wire.Message, len(groups))
	c.rots.Store(rotID, ch)
	defer c.rots.Delete(rotID)

	c.mu.Lock()
	seen := c.seen.Clone()
	c.mu.Unlock()

	err := c.Send(int(groups[0].Part), &wire.RotCoordReq{
		RotID:   rotID,
		Mode:    uint8(OneAndHalfRounds),
		SeenGSS: seen,
		Groups:  groups,
	})
	if err != nil {
		return nil, err
	}

	vals := make(map[string]wire.KV, len(keys))
	var sv vclock.Vec
	for got := 0; got < len(groups); got++ {
		select {
		case m := <-ch:
			var err error
			switch msg := m.(type) {
			case *wire.RotSnap:
				sv = msg.SV
				err = wire.Label(vals, groups[0].Keys, msg.Vals)
			case *wire.RotVals:
				if g := slices.IndexFunc(groups, func(g wire.ReadGroup) bool { return g.Part == msg.Part }); g > 0 {
					err = wire.Label(vals, groups[g].Keys, msg.Vals)
				} else {
					err = fmt.Errorf("values from partition %d, which no forwarded leg read", msg.Part)
				}
			case *wire.Busy, *wire.RotRefused:
				err = m.(error)
			}
			if err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if sv != nil {
		c.observe(sv)
	}
	return vals, nil
}

// rotTwoRounds runs one attempt of the 2-round ROT; a refused leg's error
// response is returned for ROT to retry on.
func (c *Client) rotTwoRounds(ctx context.Context, keys []string) (map[string]wire.KV, error) {
	groups := c.groups(keys)
	rotID := c.rotSeq.Add(1)
	c.mu.Lock()
	seen := c.seen.Clone()
	c.mu.Unlock()

	resp, err := c.Call(ctx, int(groups[0].Part), &wire.RotCoordReq{
		RotID:   rotID,
		Mode:    uint8(TwoRounds),
		SeenGSS: seen,
	})
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	cr, ok := resp.(*wire.RotCoordResp)
	if !ok {
		return nil, fmt.Errorf("coord: unexpected response %T", resp)
	}
	sv := cr.SV

	type result struct {
		keys []string
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
			ch <- result{keys: g.Keys, vals: rr.Vals}
		}(g)
	}
	vals := make(map[string]wire.KV, len(keys))
	for range groups {
		r := <-ch
		if r.err == nil {
			r.err = wire.Label(vals, r.keys, r.vals)
		}
		if r.err != nil {
			return nil, fmt.Errorf("read: %w", r.err)
		}
	}
	c.observe(sv)
	return vals, nil
}
