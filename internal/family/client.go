package family

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrSnapshotTooOld is returned by a ROT (and Get) that partitions kept
// refusing with wire.RotRefused: the versions its snapshot needed were
// trimmed, and the family's bounded retries did not get past the trim.
var ErrSnapshotTooOld = errors.New("snapshot too old")

// Base is the part of a client session every family repeats: the attached
// node, liveness and warm-up against the partitions of the client's DC,
// and the Busy-retry counter. A family's Client embeds it and adds its
// causal context and its ROT algorithm. Init it before use; do not copy it
// afterwards.
type Base struct {
	node  transport.Node
	dc    int
	parts int

	// busyRetries counts operations re-sent after the server shed them
	// with wire.Busy (admission control); benchmarks report the sum.
	busyRetries atomic.Uint64
}

// Init binds the session to its node — a per-client endpoint or a logical
// session of a mux — in a DC of parts partitions.
func (b *Base) Init(node transport.Node, dc, parts int) {
	b.node, b.dc, b.parts = node, dc, parts
}

// Close detaches the client.
func (b *Base) Close() error { return b.node.Close() }

// Addr returns the client's wire address.
func (b *Base) Addr() wire.Addr { return b.node.Addr() }

// Call sends a request to partition part of the client's DC, retrying with
// backoff (and counting it) while the server sheds load.
func (b *Base) Call(ctx context.Context, part int, m wire.Message) (wire.Message, error) {
	return transport.CallRetry(ctx, b.node, wire.ServerAddr(b.dc, part), m, b.CountRetry)
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

// BusyRetries returns how many times this client's operations were shed
// with Busy and retried.
func (b *Base) BusyRetries() uint64 { return b.busyRetries.Load() }

// CountRetry records one Busy retry made outside Call.
func (b *Base) CountRetry() { b.busyRetries.Add(1) }
