package family

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrSnapshotTooOld is returned by a ROT (and Get) that partitions kept
// refusing with wire.RotRefused: the versions its snapshot needed were
// trimmed, and the family's bounded retries did not get past the trim.
var ErrSnapshotTooOld = errors.New("snapshot too old")

// Base is the part of a client session every family repeats: the attached
// node, liveness and warm-up against the partitions of the client's DC,
// the Busy-retry counter and the loop that retries a ROT. A family's Client
// embeds it and adds its causal context and one attempt of its ROT
// algorithm. Init it before use; do not copy it afterwards.
type Base struct {
	node  transport.Node
	dc    int
	parts int
	rot   func(context.Context, []string) ([]wire.KV, error) // the family's ROT

	// busyRetries counts operations re-sent after the server shed them
	// with wire.Busy (admission control), fenceRetries ROT attempts retried
	// after ErrFenced (zero in steady state: only a ROT that straddles a
	// crash recovery pays it); benchmarks report the sums.
	busyRetries, fenceRetries atomic.Uint64
}

// Init binds the session to its node — a per-client endpoint or a logical
// session of a mux — in a DC of parts partitions; rot is the family's ROT,
// which Get runs over one key.
func (b *Base) Init(node transport.Node, dc, parts int, rot func(context.Context, []string) ([]wire.KV, error)) {
	b.node, b.dc, b.parts, b.rot = node, dc, parts, rot
}

// Close detaches the client.
func (b *Base) Close() error { return b.node.Close() }

// Addr returns the client's wire address.
func (b *Base) Addr() wire.Addr { return b.node.Addr() }

// Call sends a request to partition part of the client's DC, retrying with
// backoff (and counting it) while the server sheds load.
func (b *Base) Call(ctx context.Context, part int, m wire.Message) (wire.Message, error) {
	return transport.CallRetry(ctx, b.node, wire.ServerAddr(b.dc, part), m, func() { b.busyRetries.Add(1) })
}

// Send delivers a one-way message to partition part of the client's DC.
func (b *Base) Send(part int, m wire.Message) error {
	return b.node.Send(wire.ServerAddr(b.dc, part), m)
}

// Ping checks liveness of one partition. Over connection-oriented
// transports it also warms the connection, letting the partition answer
// this client directly (the 1 1/2-round ROT's partition-to-client leg).
func (b *Base) Ping(ctx context.Context, part int) error {
	resp, err := b.Call(ctx, part, &wire.Ping{Nonce: uint64(part)})
	if err != nil {
		return err
	}
	if _, ok := resp.(*wire.Pong); !ok {
		return fmt.Errorf("ping: unexpected response %T", resp)
	}
	return nil
}

// Warm pings every partition in the client's DC, establishing return paths
// before the first ROT. Required for TCP deployments; a no-op concern for
// the in-process transport.
func (b *Base) Warm(ctx context.Context) error {
	for p := 0; p < b.parts; p++ {
		if err := b.Ping(ctx, p); err != nil {
			return err
		}
	}
	return nil
}

// Get reads one key causally (a one-key ROT).
func (b *Base) Get(ctx context.Context, key string) ([]byte, error) {
	kvs, err := b.rot(ctx, []string{key})
	if err != nil {
		return nil, err
	}
	return kvs[0].Value, nil
}

// BusyRetries returns how many times this client's operations were shed
// with Busy and retried.
func (b *Base) BusyRetries() uint64 { return b.busyRetries.Load() }

// FenceRetries returns how many of this client's ROT attempts a restart
// fence (ErrFenced) forced to retry.
func (b *Base) FenceRetries() uint64 { return b.fenceRetries.Load() }

// ErrFenced is a ROT attempt's answer when a restart fence tripped: a
// partition the attempt read from finished a crash recovery while it was in
// flight (CC-LO's epoch fence), so its legs may not form one snapshot.
var ErrFenced = errors.New("epoch fence tripped")

// RotRetry is a family's part of Base.ROT's retry loop; shedding (Busy)
// needs nothing from it.
type RotRetry struct {
	// Refusals bounds the retries after a leg was refused a trimmed
	// snapshot (wire.RotRefused); past it the ROT fails with
	// ErrSnapshotTooOld. Refused, when set, folds the refusal into the
	// session and returns how long to back off first (0: retry at once).
	Refusals int
	Refused  func(*wire.RotRefused) time.Duration
	// Fences bounds the retries after ErrFenced, each counted in
	// FenceRetries.
	Fences int
}

// ROT runs a family's ROT over keys: attempt — one try under a fresh
// identity, returning what it read by key — until one answers, and returns
// one KV per key, in key order (a missing key has a nil Value).
//
//   - A shed attempt (*wire.Busy) backs off on the server's hint, up to
//     transport.DefaultBusyRetries times, each counted in BusyRetries, then
//     fails with transport.ErrOverloaded.
//   - A refused one (*wire.RotRefused) and a fenced one (ErrFenced) are
//     retried as the family's RotRetry says.
//   - Any other error ends the ROT.
func (b *Base) ROT(ctx context.Context, keys []string, p RotRetry, attempt func() (map[string]wire.KV, error)) ([]wire.KV, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	busy, refused, fenced := 0, 0, 0
	for {
		vals, err := attempt()
		if err == nil {
			out := make([]wire.KV, len(keys))
			for i, k := range keys {
				if kv, ok := vals[k]; ok {
					out[i] = kv
				} else {
					out[i] = wire.KV{Key: k}
				}
			}
			return out, nil
		}
		var (
			shed    *wire.Busy
			refusal *wire.RotRefused
			hint    time.Duration
			tries   = -1 // the backoff's attempt number; -1: retry at once
		)
		switch {
		case errors.As(err, &shed):
			if busy >= transport.DefaultBusyRetries {
				return nil, fmt.Errorf("%w: still shedding after %d retries", transport.ErrOverloaded, busy)
			}
			b.busyRetries.Add(1)
			hint, tries = shed.RetryAfter(), busy
			busy++
		case errors.As(err, &refusal):
			if refused >= p.Refusals {
				return nil, fmt.Errorf("%w: refused %d times", ErrSnapshotTooOld, refused+1)
			}
			if p.Refused != nil {
				if hint = p.Refused(refusal); hint > 0 {
					tries = refused
				}
			}
			refused++
		case errors.Is(err, ErrFenced):
			if fenced >= p.Fences {
				return nil, fmt.Errorf("%w %d times: partitions kept restarting", ErrFenced, fenced+1)
			}
			b.fenceRetries.Add(1)
			fenced++
		default:
			return nil, err
		}
		if tries >= 0 {
			if err := transport.AwaitRetry(ctx, tries, hint); err != nil {
				return nil, err
			}
		}
	}
}
