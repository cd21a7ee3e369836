package family

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// OpKind is what a served message did, as far as a partition's per-op
// histograms and slow-op trace are concerned.
type OpKind uint8

const (
	NoOp   OpKind = iota // nothing to record: control traffic, checks, a refused request
	OpPut                // a client write
	OpRep                // the application of replicated data
	OpRead               // a read or ROT leg: "get" if its request carried one key, else "rot"
)

// Op is what a family's dispatch reports about one message: Partition.Handle
// times the call and records the rest.
type Op struct {
	Kind OpKind
	Key  string // the (first) key touched; the slow-op trace keeps its hash
	Keys int    // reads: how many keys the request carried

	// Queue is how long the op waited before it could be served (core: the
	// commit watermark). A dependency-list commit leaves it zero and sets
	// Commit, the moment the commit began, instead: what the handler spent
	// before then (dependency wait, readers check) is its queue.
	Queue  time.Duration
	Commit time.Time
	Fsync  time.Duration // the WAL append
}

// Read is the Op of a read whose request carried keys.
func Read(keys []string) Op {
	op := Op{Kind: OpRead, Keys: len(keys)}
	if len(keys) > 0 {
		op.Key = keys[0]
	}
	return op
}

// Dispatch is a family's message switch: it serves m and reports what it
// did. ok is false for a message the family does not know.
type Dispatch func(src wire.From, reqID uint64, m wire.Message) (op Op, ok bool)

// Series registers a set of series under r with the caller's labels.
type Series func(r *metrics.Registry, labels ...metrics.Label)

// Partition is every family's partition server less its protocol: the
// attached node, the per-op histograms and the slow-op ring, the
// replication-receipt ages, and the one transport.Handler a family
// registers. Its Handle answers Ping, refuses what the family does not know,
// and hands everything else to the family's Dispatch, whose report it times
// and records — so no family records an op itself.
type Partition struct {
	Node transport.Node // set by Attach

	name       string // error-message prefix: "core", "cclo", "cops"
	dc, numDCs int
	dispatch   Dispatch

	ops     metrics.OpHists
	slow    *metrics.SlowRing // process-wide, nil-safe
	repAges *RepAges
	series  []Series // the store's, then what the family exposes
}

// NewPartition starts the books of a partition server of family name in DC
// dc of numDCs; store registers the family's store series.
func NewPartition(name string, dc, numDCs int, slow *metrics.SlowRing, store Series) *Partition {
	return &Partition{
		name: name, dc: dc, numDCs: numDCs,
		slow: slow, repAges: NewRepAges(numDCs), series: []Series{store},
	}
}

// Attach registers the partition at addr behind a ready gate, with dispatch
// as the family's message switch. A server is reachable the instant the
// network's Attach returns, but its handlers need the node (and whatever the
// server builds from it): dispatch blocks until the caller invokes open, so
// an early message cannot observe a half-built server. Call open exactly
// once, when construction is complete.
func (p *Partition) Attach(net transport.Network, addr wire.Addr, dispatch Dispatch) (open func(), err error) {
	ready := make(chan struct{})
	p.dispatch = dispatch
	p.Node, err = net.Attach(addr, transport.HandlerFunc(
		func(n transport.Node, src wire.From, reqID uint64, m wire.Message) {
			<-ready
			p.Handle(n, src, reqID, m)
		}))
	if err != nil {
		return nil, err
	}
	return func() { close(ready) }, nil
}

// Addr returns the server's wire address.
func (p *Partition) Addr() wire.Addr { return p.Node.Addr() }

// Handle serves one incoming message. Both carriers run every request on
// a worker of its own (transport's one inbound path), so it may block.
func (p *Partition) Handle(_ transport.Node, src wire.From, reqID uint64, m wire.Message) {
	if ping, ok := m.(*wire.Ping); ok {
		_ = p.Node.Respond(src, reqID, &wire.Pong{Nonce: ping.Nonce})
		return
	}
	start := time.Now()
	op, ok := p.dispatch(src, reqID, m)
	if !ok {
		if reqID != 0 {
			transport.RespondError(p.Node, src, reqID, 400, p.name+": unexpected message")
		}
		return
	}
	var h *metrics.StaticHist
	var name string
	switch {
	case op.Kind == OpPut:
		h, name = &p.ops.Put, "put"
	case op.Kind == OpRep:
		h, name = &p.ops.Rep, "rep"
	case op.Kind == OpRead && op.Keys == 1:
		h, name = &p.ops.Get, "get"
	case op.Kind == OpRead:
		h, name = &p.ops.ROT, "rot"
	default:
		return
	}
	total := time.Since(start)
	h.Record(total)
	if !op.Commit.IsZero() {
		op.Queue = op.Commit.Sub(start)
	}
	var kh uint64
	if op.Key != "" {
		kh = metrics.KeyHash(op.Key)
	}
	p.slow.Record(metrics.SlowOp{
		Start: start.UnixNano(), Op: name, KeyHash: kh,
		Total: total, Queue: op.Queue, Fsync: op.Fsync,
	})
}

// FromPeer vets the source DC of replicated data and stamps its receipt. A
// source that is this DC, or no DC at all, is answered 400 and FromPeer
// returns false: installing it would take an identity a real write of that
// DC may later need, and the caller must do nothing with it.
func (p *Partition) FromPeer(src wire.From, reqID uint64, srcDC uint8) bool {
	if int(srcDC) == p.dc || int(srcDC) >= p.numDCs {
		transport.RespondError(p.Node, src, reqID, 400, p.name+": bad replication source")
		return false
	}
	p.repAges.Note(int(srcDC))
	return true
}

// Expose adds a family's own series to what RegisterMetrics registers.
func (p *Partition) Expose(s Series) { p.series = append(p.series, s) }

// RegisterMetrics exposes the per-op histograms, the replication-receipt
// ages, the store and whatever the family exposed under r. Labels should
// identify the partition (dc, partition, family); every partition in a
// process shares r.
func (p *Partition) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	p.ops.Register(r, "kv_server_op_seconds",
		"End-to-end server handler latency by operation.", labels...)
	p.repAges.Register(r, p.dc, labels...)
	for _, s := range p.series {
		s(r, labels...)
	}
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
