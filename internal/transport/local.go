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
// Local models latency, not syscalls: each frame is its own flight,
// charged its own latency sample and handed straight to a delivery wheel.
// There is no send queue and no batching: under load a batching engine
// per link coalesced 1.17 frames per flush here while its goroutines took
// a quarter of the CPU. Batching saves real syscalls, so only TCP batches
// (batch.go).
//
// Delayed delivery does not use runtime timers: on stock kernels their
// granularity (≥1 ms on this class of machine) would swamp the sub-ms LAN
// latencies under study. Instead, sharded delivery wheels block on a
// channel while idle and spin only when the next delivery is imminent,
// giving microsecond-accurate injection (README, "Transport batching").
type Local struct {
	admission
	latency   LatencyModel
	stats     Stats
	wheels    []*wheel
	nextWheel atomic.Uint32 // round-robin cursor over wheels, one step per flight
	start     time.Time     // zero of clock
	wheelWG   sync.WaitGroup

	// lossBits holds the current cross-DC loss fraction (float64 bits),
	// runtime-adjustable so fault tests can sever and heal the WAN
	// mid-workload (SetInterDCLoss). Seeded from latency.InterDCLoss.
	lossBits atomic.Uint64

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

// NewLocal returns an empty in-process network.
func NewLocal(latency LatencyModel) *Local {
	l := &Local{
		latency: latency,
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

// fly commits one frame from src to dst: due Delay(src, dst) from now on
// the next wheel in turn, or delivered at once when the delay is zero. A
// full wheel exerts backpressure until ctx is done or the network closes —
// one-way Sends carry a Background ctx and simply block, while a Call's
// deadline bounds its wait too, as on TCP. Ownership of f passes to the
// network either way.
func (l *Local) fly(ctx context.Context, src, dst wire.Addr, f *wire.FrameBuf) error {
	d := l.latency.Delay(src, dst)
	if d <= 0 {
		l.deliver(dst, f)
		return nil
	}
	w := l.wheels[l.nextWheel.Add(1)%numWheels]
	var err error
	select {
	case w.ch <- delivery{due: l.clock() + d, dst: dst, f: f}:
		select {
		case <-w.stop:
			// The wheel stopped while we were handing over; its own sweep
			// may already be done, stranding f. Sweep the channel here too
			// so every frame is recycled and counted as dropped.
			w.sweep()
			return ErrClosed
		default:
			return nil
		}
	case <-w.stop:
		err = ErrClosed
	case <-ctx.Done():
		err = ctx.Err()
	}
	wire.PutFrame(f)
	return err
}

// Stats exposes the network's traffic counters.
func (l *Local) Stats() *Stats { return &l.stats }

// clock is the network's monotonic time, on which flights are due.
func (l *Local) clock() time.Duration { return time.Since(l.start) }

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

// AttachMux registers addr as a multiplexed client endpoint; pool is
// ignored (see Network.AttachMux). Sessions are the endpoint's own
// (endpoint.go), the code a TCP mux runs — internal/check exercises the
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
	n := &localNode{net: l, endpoint: endpoint{addr: addr, h: h, gate: l.gateFor(addr), stats: &l.stats, stop: make(chan struct{}), idle: make(chan func())}}
	n.self, n.carry = n, n.send
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

// deliver hands a frame that has landed to its node, which runs it on a
// worker of its own (endpoint.spawn): handlers may block on cluster state
// that a later frame would satisfy, so no frame waits for another's
// handler.
func (l *Local) deliver(to wire.Addr, f *wire.FrameBuf) {
	n := l.lookup(to)
	if n == nil {
		l.stats.Dropped.Add(1)
		wire.PutFrame(f)
		return
	}
	n.spawn(func() { n.dispatch(f) })
}

// dispatch delivers a marshalled envelope after its simulated flight to n:
// a response to its waiting Call, a request through serve on the worker
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

// delivery is one frame in flight, the node it flies to and when it
// lands. It is boxed on every heap push and pop, so its due time is a
// Duration on the network's clock, not a 24-byte time.Time: that keeps it
// in the 24-byte size class.
type delivery struct {
	due time.Duration
	dst wire.Addr
	f   *wire.FrameBuf
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
			w.net.deliver(d.dst, d.f)
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
// other close path.
func (w *wheel) shut() {
	for _, d := range w.h {
		w.net.drop(d)
	}
	w.h = nil
	w.sweep()
}

// sweep drops every flight waiting in the channel. Both the stopped wheel
// and a sender that lost the race with the stop run it, so no frame handed
// over around Close is stranded.
func (w *wheel) sweep() {
	for {
		select {
		case d := <-w.ch:
			w.net.drop(d)
		default:
			return
		}
	}
}

// drop counts a flight the closed network never delivers and recycles its
// frame.
func (l *Local) drop(d delivery) {
	l.stats.Dropped.Add(1)
	wire.PutFrame(d.f)
}

// localNode is an endpoint whose carrier is the simulated network: each
// frame flies on its own and lands on a worker of the destination's.
type localNode struct {
	endpoint
	net *Local
}

// send is the endpoint's carry: it marshals env, applies the loss model and
// puts the frame in flight.
func (n *localNode) send(ctx context.Context, env wire.Envelope) error {
	f := wire.GetFrame()
	f.Envelope(&env)
	bytes := uint64(len(f.B))
	if n.net.dropMsg(env.Src, env.Dst) {
		n.stats.Dropped.Add(1)
		wire.PutFrame(f) // lost in flight; sender cannot tell
	} else if err := n.net.fly(ctx, env.Src, env.Dst, f); err != nil {
		return err
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
