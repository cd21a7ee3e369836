package family

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Attach registers h at addr behind a ready gate. A server is reachable
// the instant the network's Attach returns, but its handlers need the node
// Attach returns (and whatever the server builds from it): dispatch blocks
// until the caller invokes open, so an early message cannot observe a
// half-built server. Call open exactly once, when construction is
// complete.
func Attach(net transport.Network, addr wire.Addr, h transport.Handler) (node transport.Node, open func(), err error) {
	ready := make(chan struct{})
	node, err = net.Attach(addr, transport.HandlerFunc(
		func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
			<-ready
			h.Handle(n, src, reqID, m)
		}))
	if err != nil {
		return nil, nil, err
	}
	return node, func() { close(ready) }, nil
}

// RepAges keeps the wall-clock receipt time of the newest replicated
// update (or batch) from each peer DC — the one replication-lag signal
// that means the same under every clock, Lamport clocks included, whose
// timestamps carry no wall-time component.
type RepAges struct {
	last    []atomic.Int64 // unix nanos, indexed by source DC
	started int64          // unix nanos at construction: the floor before the first receipt
}

// NewRepAges starts the ages of a server in a numDCs deployment.
func NewRepAges(numDCs int) *RepAges {
	return &RepAges{last: make([]atomic.Int64, numDCs), started: time.Now().UnixNano()}
}

// Note stamps receipt of replicated data from dc.
func (a *RepAges) Note(dc int) {
	if dc >= 0 && dc < len(a.last) {
		a.last[dc].Store(time.Now().UnixNano())
	}
}

// Age returns the wall-clock age of the newest receipt from dc, falling
// back to the server's start time before the first one so the gauge is
// meaningful (and monotone) from boot.
func (a *RepAges) Age(dc int) time.Duration {
	if dc < 0 || dc >= len(a.last) {
		return 0
	}
	at := a.last[dc].Load()
	if at == 0 {
		at = a.started
	}
	return time.Duration(time.Now().UnixNano() - at)
}

// Register exposes one kv_replication_last_update_age_seconds gauge per
// peer of DC self under r.
func (a *RepAges) Register(r *metrics.Registry, self int, labels ...metrics.Label) {
	for dc := range a.last {
		if dc == self {
			continue
		}
		r.GaugeFunc("kv_replication_last_update_age_seconds",
			"Seconds since the last replication batch was received from the peer DC (server start if none yet).",
			func() float64 { return a.Age(dc).Seconds() }, WithPeer(labels, dc)...)
	}
}

// WithPeer returns labels plus peer_dc=dc in a fresh slice (append would
// share the backing array across a registration loop).
func WithPeer(labels []metrics.Label, dc int) []metrics.Label {
	out := make([]metrics.Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, metrics.Label{Name: "peer_dc", Value: strconv.Itoa(dc)})
}
