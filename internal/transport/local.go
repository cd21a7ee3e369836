package transport

import (
	"container/heap"
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// LatencyModel computes one-way message delays for the in-process network.
// The defaults approximate the paper's testbed: a fast LAN within a DC and
// an emulated WAN between DCs (the paper itself runs DCs over a LAN and
// argues that suffices, §5.2).
type LatencyModel struct {
	// IntraDC is the one-way delay between two nodes in the same DC.
	IntraDC time.Duration
	// InterDC is the one-way delay between nodes in different DCs.
	InterDC time.Duration
	// JitterFrac adds uniform jitter in [0, JitterFrac] of the base delay.
	JitterFrac float64
	// InterDCLoss drops this fraction of cross-DC messages, modelling WAN
	// loss; replication must mask it by retrying (acked batches).
	InterDCLoss float64
}

// DefaultLatency mirrors a 10 Gbps LAN plus an emulated remote DC.
func DefaultLatency() LatencyModel {
	return LatencyModel{IntraDC: 100 * time.Microsecond, InterDC: time.Millisecond, JitterFrac: 0.1}
}

// Drop reports whether a message from src to dst should be lost.
func (l LatencyModel) Drop(src, dst wire.Addr) bool {
	return l.InterDCLoss > 0 && src.DC() != dst.DC() && rand.Float64() < l.InterDCLoss
}

// Delay returns the one-way delay from src to dst.
func (l LatencyModel) Delay(src, dst wire.Addr) time.Duration {
	base := l.IntraDC
	if src.DC() != dst.DC() {
		base = l.InterDC
	}
	if base <= 0 {
		return 0
	}
	if l.JitterFrac > 0 {
		base += time.Duration(rand.Float64() * l.JitterFrac * float64(base))
	}
	return base
}

// Local is an in-process Network. Every message is marshalled through the
// wire codec on send and unmarshalled on delivery, so serialization CPU
// cost is faithfully charged, and delivery is delayed per the LatencyModel.
//
// Sends flow through the same batching engine as the TCP transport (see
// batch.go), one Batcher per (source DC, destination node) link — the
// simulator's stand-in for a shared egress pipe. A coalesced batch is
// charged ONE latency sample and its frames arrive together, so the
// batching behaviour real deployments get from scatter-gather socket
// writes shows up in simulated latencies and the same Stats columns.
//
// Delayed delivery does not use runtime timers: on stock kernels their
// granularity (≥1 ms on this class of machine) would swamp the sub-ms LAN
// latencies under study. Instead, sharded delivery wheels block on a
// channel while idle and spin only when the next delivery is imminent,
// giving microsecond-accurate injection (README, "Transport batching").
type Local struct {
	latency    LatencyModel
	pol        BatchPolicy
	stats      Stats
	admit      AdmitConfig
	admitStats AdmitStats
	wheels     []*wheel
	nextWheel  atomic.Uint32 // round-robin cursor over wheels, one step per flight
	start      time.Time     // zero of clock
	wheelWG    sync.WaitGroup

	// lossBits holds the current cross-DC loss fraction (float64 bits),
	// runtime-adjustable so fault tests can sever and heal the WAN
	// mid-workload (SetInterDCLoss). Seeded from latency.InterDCLoss.
	lossBits atomic.Uint64

	// links holds the per-(source DC, destination) batchers, created
	// lazily on first send and torn down with the network. Lookups on the
	// send hot path are lock-free (sync.Map); linkMu only serializes
	// creation and close.
	linkMu     sync.Mutex
	links      sync.Map // link key (srcDC<<32|dst) -> *Batcher
	linkWG     sync.WaitGroup
	linkClosed bool

	mu     sync.RWMutex
	nodes  map[wire.Addr]*localNode
	closed bool
}

// numWheels shards delayed delivery to avoid a single dispatcher
// bottleneck at high message rates. Flights take the wheels in turn, not
// by destination: a DC's client mux receives every session's responses,
// and tying it to one wheel queued them all behind each other. Nothing is
// lost by it: Local keeps no per-link FIFO (jitter reorders flights), and
// no protocol relies on one.
const numWheels = 4

// NewLocal returns an empty in-process network with the default adaptive
// batch policy.
func NewLocal(latency LatencyModel) *Local {
	return NewLocalOpts(latency, DefaultPolicy())
}

// NewLocalOpts is NewLocal with an explicit batch policy (cluster.Start
// passes cluster.Config.Batching here).
func NewLocalOpts(latency LatencyModel, pol BatchPolicy) *Local {
	l := &Local{
		latency: latency,
		pol:     pol.withDefaults(),
		start:   time.Now(),
		nodes:   make(map[wire.Addr]*localNode),
	}
	l.lossBits.Store(math.Float64bits(latency.InterDCLoss))
	for i := 0; i < numWheels; i++ {
		w := &wheel{net: l, ch: make(chan delivery, 8192), stop: make(chan struct{})}
		l.wheels = append(l.wheels, w)
		l.wheelWG.Add(1)
		go func() {
			defer l.wheelWG.Done()
			w.run()
		}()
	}
	return l
}

// link returns (creating if needed) the batcher for the src→dst flight.
// Links are keyed by source DC, not source node: the latency model only
// distinguishes DCs, so nodes in one DC share the egress pipe to each
// destination, which keeps the link table proportional to nodes, not
// node pairs.
func (l *Local) link(src, dst wire.Addr) (*Batcher, error) {
	key := uint64(src.DC())<<32 | uint64(dst)
	if b, ok := l.links.Load(key); ok {
		return b.(*Batcher), nil
	}
	l.linkMu.Lock()
	defer l.linkMu.Unlock()
	if l.linkClosed {
		return nil, ErrClosed
	}
	if b, ok := l.links.Load(key); ok {
		return b.(*Batcher), nil
	}
	b := NewBatcher(&localSink{l: l, src: src, dst: dst}, l.pol, &l.stats)
	l.links.Store(key, b)
	l.linkWG.Add(1)
	go func() {
		defer l.linkWG.Done()
		b.Run()
	}()
	return b, nil
}

// localSink delivers one coalesced batch as a single simulated flight: the
// whole batch is charged one latency sample and its frames arrive
// together, mirroring how a TCP batch shares one scatter-gather write.
// Only src's DC matters for the delay (see link); dst travels with the
// flight, because frames do not carry their destination.
type localSink struct {
	l        *Local
	src, dst wire.Addr
}

func (s *localSink) WriteBatch(frames []*wire.FrameBuf) error {
	if d := s.l.latency.Delay(s.src, s.dst); d > 0 {
		// The delivery outlives this call and the Batcher reuses its batch
		// slice, so the wheel gets a copy.
		batch := make([]*wire.FrameBuf, len(frames))
		copy(batch, frames)
		w := s.l.wheels[s.l.nextWheel.Add(1)%numWheels]
		select {
		case w.ch <- delivery{due: s.l.clock() + d, dst: s.dst, bufs: batch}:
			return nil
		case <-w.stop:
			for _, f := range batch {
				wire.PutFrame(f)
			}
			return ErrClosed
		}
	}
	// Zero delay: dispatchBatch only spawns per-frame goroutines, so it
	// neither blocks nor retains the slice — no copy, no wrapper goroutine.
	s.l.dispatchBatch(s.dst, frames)
	return nil
}

// Stats exposes the network's traffic counters.
func (l *Local) Stats() *Stats { return &l.stats }

// clock is the network's monotonic time, on which flights are due.
func (l *Local) clock() time.Duration { return time.Since(l.start) }

// AdmitStats exposes the admission-control counters (all zero while
// admission is disabled).
func (l *Local) AdmitStats() *AdmitStats { return &l.admitStats }

// SetAdmission configures client admission control for nodes attached
// AFTER the call: each server-address node gets its own gate, applied only
// to requests whose source carries the client flag (endpoint.route). Call
// it before attaching servers.
func (l *Local) SetAdmission(cfg AdmitConfig) {
	l.mu.Lock()
	l.admit = cfg
	l.mu.Unlock()
}

// SetInterDCLoss changes the cross-DC loss fraction at runtime. Fault
// tests use 1.0 to sever the WAN (isolating a DC while it keeps serving
// locally) and 0 to heal it.
func (l *Local) SetInterDCLoss(frac float64) {
	l.lossBits.Store(math.Float64bits(frac))
}

// dropMsg applies the current loss fraction to one src→dst flight, using
// the shared LatencyModel predicate so the loss semantics live in one
// place.
func (l *Local) dropMsg(src, dst wire.Addr) bool {
	return LatencyModel{InterDCLoss: math.Float64frombits(l.lossBits.Load())}.Drop(src, dst)
}

// Attach registers addr with handler h.
func (l *Local) Attach(addr wire.Addr, h Handler) (Node, error) {
	return l.attach(addr, h)
}

// AttachMux registers addr as a multiplexed client endpoint. The simulator
// has no sockets, so the pool size is ignored; sessions are the endpoint's
// own (endpoint.go), the code a TCP mux runs — internal/check exercises the
// mux paths on this transport.
func (l *Local) AttachMux(addr wire.Addr, _ int) (Mux, error) {
	return l.attach(addr, nil)
}

func (l *Local) attach(addr wire.Addr, h Handler) (*localNode, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if _, dup := l.nodes[addr]; dup {
		return nil, ErrAttached
	}
	n := &localNode{net: l, endpoint: endpoint{addr: addr, h: h, stats: &l.stats, pool: 1, stop: make(chan struct{})}}
	n.self, n.carry = n, n.send
	if addr.IsServer() && l.admit.Enabled() {
		n.gate = NewAdmitGate(l.admit, &l.admitStats)
	}
	l.nodes[addr] = n
	return n, nil
}

// Close detaches every node. In-flight messages are dropped and counted in
// Stats.Dropped; Close returns once every delivery wheel has stopped.
func (l *Local) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for a, n := range l.nodes {
		n.shut()
		delete(l.nodes, a)
	}
	l.mu.Unlock()
	// Stop the link batchers and wait them out BEFORE stopping the wheels:
	// a final flush must find its wheel alive (frames to already-closed
	// nodes are dropped at dispatch, as before).
	l.linkMu.Lock()
	l.linkClosed = true
	l.links.Range(func(_, b any) bool {
		b.(*Batcher).Close()
		return true
	})
	l.linkMu.Unlock()
	l.linkWG.Wait()
	for _, w := range l.wheels {
		close(w.stop)
	}
	l.wheelWG.Wait()
	return nil
}

func (l *Local) lookup(addr wire.Addr) *localNode {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.nodes[addr]
}

// dispatchBatch fans a batch delivered to node to out to per-frame dispatch
// goroutines: the frames arrive at the same instant (one latency charge),
// but each handler gets its own goroutine — handlers may block on cluster
// state another frame of the same batch would satisfy, so sequential
// in-batch handling could deadlock. The node is looked up once per batch:
// every frame of a flight shares its destination.
func (l *Local) dispatchBatch(to wire.Addr, bufs []*wire.FrameBuf) {
	n := l.lookup(to)
	if n == nil {
		l.stats.Dropped.Add(uint64(len(bufs)))
		for _, f := range bufs {
			wire.PutFrame(f)
		}
		return
	}
	for _, f := range bufs {
		go n.dispatch(f)
	}
}

// dispatch delivers a marshalled envelope after its simulated flight to n:
// a response to its waiting Call, a request through serve on the goroutine
// the frame already has. The frame does not carry its destination, so
// dispatch stamps n's address as the envelope's Dst. It consumes f,
// returning it to the frame pool once decoded.
func (n *localNode) dispatch(f *wire.FrameBuf) {
	env, err := wire.DecodeEnvelope(f.B)
	wire.PutFrame(f) // DecodeEnvelope copies fields out; safe to recycle
	if err != nil {
		n.stats.Dropped.Add(1)
		return
	}
	env.Dst = n.addr
	if n.closed.Load() {
		n.drop(env.Msg)
		return
	}
	if env.Resp {
		n.deliverResponse(env)
		return
	}
	n.wg.Add(1)
	n.serve(env)
}

// delivery is one in-flight coalesced batch, the node it flies to and when
// it lands. It is boxed on every heap push and pop, so its due time is a
// Duration on the network's clock, not a 24-byte time.Time: that keeps it
// in the 48-byte size class with dst added.
type delivery struct {
	due  time.Duration
	dst  wire.Addr
	bufs []*wire.FrameBuf
}

// deliveryHeap is a min-heap of deliveries by due time.
type deliveryHeap []delivery

func (h deliveryHeap) Len() int           { return len(h) }
func (h deliveryHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h deliveryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)        { *h = append(*h, x.(delivery)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	*h = old[:n-1]
	return d
}

// spinHorizon is how close a due time must be before the wheel spins for
// it rather than sleeping; it exceeds the host timer slack so sleeps never
// overshoot a due time.
const spinHorizon = 2 * time.Millisecond

// wheel delivers delayed messages with microsecond accuracy.
type wheel struct {
	net  *Local
	ch   chan delivery
	h    deliveryHeap
	stop chan struct{}
}

func (w *wheel) run() {
	defer w.shut()
	for {
		// Idle: block until work or shutdown (channel wakes are fast).
		if len(w.h) == 0 {
			select {
			case d := <-w.ch:
				heap.Push(&w.h, d)
			case <-w.stop:
				return
			}
		}
		// Drain whatever else arrived.
		for {
			select {
			case d := <-w.ch:
				heap.Push(&w.h, d)
				continue
			case <-w.stop:
				return
			default:
			}
			break
		}
		// Deliver everything due.
		now := w.net.clock()
		for len(w.h) > 0 && w.h[0].due <= now {
			d := heap.Pop(&w.h).(delivery)
			w.net.stats.DeliveryLate.Record(now - d.due)
			w.net.dispatchBatch(d.dst, d.bufs)
		}
		if len(w.h) == 0 {
			continue
		}
		// Far-future head: sleep most of the gap, waking early for new
		// messages; imminent head: spin.
		wait := w.h[0].due - w.net.clock()
		if wait > spinHorizon {
			t := time.NewTimer(wait - spinHorizon)
			select {
			case d := <-w.ch:
				heap.Push(&w.h, d)
			case <-t.C:
			case <-w.stop:
				t.Stop()
				return
			}
			t.Stop()
		} else {
			runtime.Gosched()
		}
	}
}

// shut drops the flights still in the heap and the channel when the network
// closes: each frame is counted in Stats.Dropped and recycled, as on every
// other close path. Local.Close stops the link batchers before the wheels,
// so nothing is sent to the channel after this sweep.
func (w *wheel) shut() {
	drop := func(d delivery) {
		w.net.stats.Dropped.Add(uint64(len(d.bufs)))
		for _, f := range d.bufs {
			wire.PutFrame(f)
		}
	}
	for _, d := range w.h {
		drop(d)
	}
	w.h = nil
	for {
		select {
		case d := <-w.ch:
			drop(d)
		default:
			return
		}
	}
}

// localNode is an endpoint whose carrier is the simulated network: frames
// leave through the per-link batchers and arrive on a goroutine each.
type localNode struct {
	endpoint
	net *Local
}

// send is the endpoint's carry: it marshals env, applies the loss model and
// commits the frame to the src→dst link.
func (n *localNode) send(ctx context.Context, env wire.Envelope, _ uint8) error {
	f := wire.GetFrame()
	f.Envelope(&env)
	bytes := uint64(len(f.B))
	if n.net.dropMsg(env.Src, env.Dst) {
		n.stats.Dropped.Add(1)
		wire.PutFrame(f) // lost in flight; sender cannot tell
	} else {
		b, err := n.net.link(env.Src, env.Dst)
		if err != nil {
			wire.PutFrame(f)
			return err
		}
		// A full link queue exerts backpressure until ctx is done or the
		// link (network) closes — one-way Sends carry a Background ctx and
		// simply block, while a Call's deadline bounds its queueing too,
		// matching the TCP enqueue semantics.
		if err := b.Enqueue(ctx, f); err != nil {
			return err
		}
	}
	// Counted only once the message is committed to the network (or
	// charged as lost in flight), matching the TCP path: sends aborted by
	// shutdown must not inflate the traffic metrics benchmarks report.
	n.stats.sent(env.Msg.Type(), bytes)
	return nil
}

// Close detaches the node from the network.
func (n *localNode) Close() error {
	n.shut()
	n.net.mu.Lock()
	delete(n.net.nodes, n.addr)
	n.net.mu.Unlock()
	return nil
}
