// Package transport moves wire messages between processes.
//
// Two networks share one endpoint (endpoint.go: calls, sessions, inbound
// routing and workers, the shed path), and differ only in what carries a
// frame: Local, an in-process network that marshals every message and
// injects configurable per-link latency, one flight per frame (the
// benchmark substrate standing in for the paper's 10 Gbps LAN), and TCP, a
// real network transport that makes the same servers deployable across
// processes (cmd/kvserver). TCP keeps one socket per pair of endpoints, and
// each socket's one writer coalesces whatever frames are queued into a
// scatter-gather write (batch.go); nothing about it is configurable.
//
// The model is asynchronous messaging with a request/response convenience:
// Send delivers a one-way message; Call delivers a request and blocks until
// the matching response or context cancellation. Every incoming request
// runs its Handler on a worker of its own, off the receive path, on both
// networks (endpoint.spawn, then endpoint.serve, the one inbound path), so
// handlers may block and issue nested Calls (the readers check in CC-LO
// does exactly that).
package transport

import (
	"context"
	"errors"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Transport errors.
var (
	ErrClosed   = errors.New("transport: closed")
	ErrNoRoute  = errors.New("transport: no route to destination")
	ErrAttached = errors.New("transport: address already attached")
)

// Handler receives messages addressed to a node. src names the sender:
// its endpoint address plus, for multiplexed client traffic, the logical
// session on it — handlers pass src back to Respond/SendTo unchanged and
// the reply reaches the right session. reqID is nonzero when the sender
// awaits a response via Call; the handler must eventually call
// node.Respond(src, reqID, resp) for such messages. Handlers run on
// dedicated goroutines and may block.
//
// Ownership: the transport recycles pooled message types after Handle
// returns (wire.Recycle), so a handler must not retain the message struct —
// nor the container slices its Reset recycles (e.g. RepBatch.Ups, the Keys
// of the read requests) — past its return. Deep data the protocols do keep
// (key strings, value bytes, vectors, dependency lists) is allocated fresh
// by every decode and safe to retain; each pooled type's Reset documents
// its policy.
type Handler interface {
	Handle(node Node, src wire.From, reqID uint64, m wire.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(node Node, src wire.From, reqID uint64, m wire.Message)

// Handle calls f.
func (f HandlerFunc) Handle(node Node, src wire.From, reqID uint64, m wire.Message) {
	f(node, src, reqID, m)
}

// Node is one attached endpoint of a network.
type Node interface {
	// Addr returns the node's address.
	Addr() wire.Addr
	// Send delivers a one-way message to dst.
	Send(dst wire.Addr, m wire.Message) error
	// SendTo delivers a one-way message to a full destination — endpoint
	// plus session — so servers can push directly to one session of a
	// multiplexed client (the 1 1/2-round ROT's direct answers, Busy
	// echoes). SendTo(wire.At(dst), m) is Send(dst, m).
	SendTo(to wire.From, m wire.Message) error
	// Call sends a request to dst and waits for the response. If the
	// responder answered with *wire.ErrorResp, Call returns it as the
	// error.
	Call(ctx context.Context, dst wire.Addr, m wire.Message) (wire.Message, error)
	// Respond answers a request previously delivered with reqID, routing
	// by the full origin the handler received.
	Respond(to wire.From, reqID uint64, m wire.Message) error
	// Close detaches the node.
	Close() error
}

// Session is one logical client session on a multiplexed endpoint. It is a
// full Node — its Sends and Calls stamp the session id into every frame,
// and inbound frames carrying the id (direct server pushes) reach its
// handler — but any number of sessions share the endpoint's sockets.
type Session interface {
	Node
	// ID returns the session's identity (tenant + local id).
	ID() wire.SessionID
}

// Mux is a multiplexed client endpoint: one attached address carrying any
// number of logical sessions over one connection per destination.
type Mux interface {
	// Addr returns the endpoint's address.
	Addr() wire.Addr
	// Session registers a logical session with its push handler (h may be
	// nil when the session never receives direct server pushes). The id
	// must be nonzero and unused.
	Session(id wire.SessionID, h Handler) (Session, error)
	// Close detaches the endpoint and every session on it.
	Close() error
}

// Network attaches nodes to a message fabric.
type Network interface {
	// Attach registers addr with handler h and returns the node.
	Attach(addr wire.Addr, h Handler) (Node, error)
	// AttachMux registers addr as a multiplexed client endpoint whose
	// sessions share one connection per destination. Both carriers ignore
	// pool: it stays only because the frozen benchmark module passes it.
	AttachMux(addr wire.Addr, pool int) (Mux, error)
	// Close shuts the fabric down.
	Close() error
}

// Stats counts network traffic. Benchmarks read these to report the
// communication overhead analyses of Sections 5.4–5.6 and the transport
// efficiency of the write path (frame coalescing, flush counts and
// latency, queue depth). Only TCP batches (batch.go), so the batching
// counters move on TCP alone and read 0 on Local, which sends each frame
// as its own flight.
type Stats struct {
	MsgsSent  metrics.Counter
	BytesSent metrics.Counter
	Dropped   metrics.Counter

	// Sent splits MsgsSent and BytesSent by wire message type: which
	// messages an operation's bytes are spent on.
	Sent [wire.NumTypes]struct{ Msgs, Bytes metrics.Counter }

	// Flushes counts batches cut by TCP's socket writers, one
	// scatter-gather socket write each (a giant batch may need more than
	// one writev at the kernel boundary); 0 on Local. FramesCoalesced
	// counts frames that joined an earlier frame's batch. Msgs/Flushes and
	// FramesCoalesced/Msgs together describe how well the writers batch.
	Flushes         metrics.Counter
	FramesCoalesced metrics.Counter

	// FlushDelay is the enqueue→flush latency distribution: how long
	// frames waited in a TCP send queue plus the write of the batch they
	// joined. A batch stays open only while frames are already queued, so
	// the delay is the socket writes ahead of a frame, never a timer.
	// Empty on Local, which queues nothing.
	FlushDelay metrics.StaticHist

	// DeliveryLate is how far past its due time the simulator delivered a
	// delayed frame: the injection error Local adds on top of the latency
	// model (Local only; one sample per delayed frame).
	DeliveryLate metrics.StaticHist

	// WritevBytes counts the bytes of frames of 16 KiB or more, which a
	// TCP writer chains as their own writev iovec instead of copying them
	// into its staging buffer. TCP only; Local has no copy to skip.
	WritevBytes metrics.Counter

	// SendQueue tracks frames sitting in TCP send queues (current level
	// and high-water mark). Local has no send queue — a frame goes
	// straight to its delivery wheel — so it reads 0 there.
	SendQueue metrics.Gauge

	// OpenConns tracks live sockets (TCP only; the Local simulator has
	// none). A mux opens one socket per server it contacts, so this stays
	// O(nodes) while Sessions grows with offered client load — their
	// ratio is the multiplexing factor the connection-scale smoke asserts
	// on.
	OpenConns metrics.Gauge

	// Sessions tracks registered logical client sessions across the
	// network's multiplexed endpoints.
	Sessions metrics.Gauge
}

// sent counts one frame of message type t and its envelope bytes.
func (s *Stats) sent(t uint16, bytes uint64) {
	s.MsgsSent.Add(1)
	s.BytesSent.Add(bytes)
	s.Sent[t].Msgs.Add(1)
	s.Sent[t].Bytes.Add(bytes)
}

// StatsView is a frozen copy of every transport counter. FlushP99Delay is
// a whole-run percentile (like the queue peak), not a window delta.
type StatsView struct {
	MsgsSent        uint64
	BytesSent       uint64
	Dropped         uint64
	Flushes         uint64
	FramesCoalesced uint64
	FlushP99Delay   time.Duration
	WritevBytes     uint64
	// HandlerOverflow is always 0: no carrier has a bounded worker pool
	// to spill past, since a request that finds no idle worker starts a
	// new one (endpoint.spawn). It stays only because the frozen benchmark
	// module reads it.
	HandlerOverflow uint64
	SendQueueDepth  int64
	SendQueuePeak   int64
	OpenConns       int64
	OpenConnsPeak   int64
	Sessions        int64
	SessionsPeak    int64
}

// View returns a frozen copy of all counters.
func (s *Stats) View() StatsView {
	return StatsView{
		MsgsSent:        s.MsgsSent.Load(),
		BytesSent:       s.BytesSent.Load(),
		Dropped:         s.Dropped.Load(),
		Flushes:         s.Flushes.Load(),
		FramesCoalesced: s.FramesCoalesced.Load(),
		FlushP99Delay:   s.FlushDelay.Percentile(99),
		WritevBytes:     s.WritevBytes.Load(),
		SendQueueDepth:  s.SendQueue.Load(),
		SendQueuePeak:   s.SendQueue.HighWater(),
		OpenConns:       s.OpenConns.Load(),
		OpenConnsPeak:   s.OpenConns.HighWater(),
		Sessions:        s.Sessions.Load(),
		SessionsPeak:    s.Sessions.HighWater(),
	}
}

// Register exposes every transport counter under the given registry with
// the caller's labels (typically none: one transport serves the whole
// process). Registration only hands the registry pointers; the send-path
// hot code is untouched.
func (s *Stats) Register(r *metrics.Registry, labels ...metrics.Label) {
	r.Counter("kv_transport_msgs_sent_total", "Frames sent.", &s.MsgsSent, labels...)
	r.Counter("kv_transport_bytes_sent_total", "Frame bytes sent (headers included).", &s.BytesSent, labels...)
	for _, t := range wire.Types() {
		typed := append(slices.Clip(labels), metrics.Label{Name: "type", Value: wire.TypeName(t)})
		r.Counter("kv_transport_sent_msgs_total", "Frames sent, by message type.", &s.Sent[t].Msgs, typed...)
		r.Counter("kv_transport_sent_bytes_total", "Frame bytes sent (headers included), by message type.", &s.Sent[t].Bytes, typed...)
	}
	r.Counter("kv_transport_dropped_total", "Frames dropped at a closed or full sink.", &s.Dropped, labels...)
	r.Counter("kv_transport_flushes_total", "Batches cut by the socket writers.", &s.Flushes, labels...)
	r.Counter("kv_transport_frames_coalesced_total", "Frames that joined an earlier frame's batch.", &s.FramesCoalesced, labels...)
	r.Histogram("kv_transport_flush_delay_seconds", "Enqueue-to-flush latency of batched frames.", &s.FlushDelay, labels...)
	r.Histogram("kv_transport_delivery_late_seconds", "Lateness of simulated deliveries past their due time (in-process transport only).", &s.DeliveryLate, labels...)
	r.Counter("kv_transport_writev_bytes_total", "Frame bytes sent through the scatter-gather path.", &s.WritevBytes, labels...)
	r.Gauge("kv_transport_send_queue_frames", "Frames currently sitting in send queues.", &s.SendQueue, labels...)
	r.Gauge("kv_transport_open_conns", "Live sockets (zero on the in-process transport).", &s.OpenConns, labels...)
	r.Gauge("kv_transport_sessions", "Registered logical client sessions across multiplexed endpoints.", &s.Sessions, labels...)
}

// RespondError is a small helper servers use to answer a Call with an
// error message.
func RespondError(n Node, to wire.From, reqID uint64, code uint16, text string) {
	_ = n.Respond(to, reqID, &wire.ErrorResp{Code: code, Text: text})
}

// unwrapResp converts a response envelope into Call's return values: a
// response message that implements error — *wire.ErrorResp, the admission
// gate's *wire.Busy, a ROT leg's *wire.RotRefused — is the Call's error, so
// every Call path sees shedding and refusals uniformly.
func unwrapResp(env *wire.Envelope) (wire.Message, error) {
	if e, ok := env.Msg.(error); ok {
		return nil, e
	}
	return env.Msg, nil
}
