package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

const (
	// maxFrame bounds a single TCP frame.
	maxFrame = 1 << 26 // 64 MiB
	// readChunk is the largest frame body read into a pooled frame at once
	// (the frame pool keeps buffers up to 1 MiB); a larger body grows from
	// it as its bytes arrive (readBody).
	readChunk = 1 << 20
	// readBufSize sizes the per-connection buffered reader.
	readBufSize = 64 << 10
)

// TCP is a Network over real sockets. Server addresses must appear in the
// directory; clients need not listen — peers respond over the connection a
// request arrived on.
type TCP struct {
	admission
	stats Stats

	mu     sync.Mutex
	dir    map[wire.Addr]string
	nodes  map[wire.Addr]*tcpNode
	closed bool
}

// NewTCP returns a TCP network with the given address directory
// (wire address → "host:port").
func NewTCP(directory map[wire.Addr]string) *TCP {
	dir := make(map[wire.Addr]string, len(directory))
	for a, hp := range directory {
		dir[a] = hp
	}
	return &TCP{dir: dir, nodes: make(map[wire.Addr]*tcpNode)}
}

// Stats exposes traffic counters.
func (t *TCP) Stats() *Stats { return &t.stats }

// Attach registers addr. If addr is in the directory the node listens on
// its directory endpoint; otherwise it is a client-only node that can dial
// out but not accept.
func (t *TCP) Attach(addr wire.Addr, h Handler) (Node, error) {
	return t.attach(addr, h)
}

// AttachMux registers addr as a multiplexed client endpoint: any number of
// logical sessions share its one socket per destination. Frames a session
// sends carry its id; inbound frames carrying a registered session id are
// demultiplexed to that session's handler. The endpoint itself has no base
// handler — a frame for no live session is dropped with accounting. pool
// is ignored (see Network.AttachMux).
func (t *TCP) AttachMux(addr wire.Addr, _ int) (Mux, error) {
	return t.attach(addr, nil)
}

func (t *TCP) attach(addr wire.Addr, h Handler) (*tcpNode, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if _, dup := t.nodes[addr]; dup {
		return nil, ErrAttached
	}
	// Listen before anything starts, so a failure has nothing to unwind.
	var ln net.Listener
	if hp, ok := t.dir[addr]; ok {
		var err error
		if ln, err = net.Listen("tcp", hp); err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", hp, err)
		}
	}
	n := &tcpNode{
		endpoint: endpoint{addr: addr, h: h, gate: t.gateFor(addr), stats: &t.stats, stop: make(chan struct{}), idle: make(chan func())},
		t:        t,
		ln:       ln,
		conns:    make(map[wire.Addr]*tcpConn),
		all:      make(map[*tcpConn]struct{}),
		dialing:  make(map[wire.Addr]chan struct{}),
	}
	n.self, n.carry = n, n.send
	if ln != nil {
		n.wg.Add(1)
		go n.acceptLoop()
	}
	t.nodes[addr] = n
	return n, nil
}

// Close shuts down every attached node.
func (t *TCP) Close() error {
	t.mu.Lock()
	nodes := make([]*tcpNode, 0, len(t.nodes))
	for _, n := range t.nodes {
		nodes = append(nodes, n)
	}
	t.closed = true
	t.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
	return nil
}

// tcpConn owns one socket. Its send path is one writer (batch.go) whose
// batches writeBatch scatter-gathers into the socket.
type tcpConn struct {
	c     net.Conn
	w     *writer
	stats *Stats

	peer atomic.Uint32 // learned wire.Addr, 0 until known
	once sync.Once

	// writeBatch's scratch, owned by the writer goroutine.
	stage []byte
	bufs  [][]byte
	owned []*wire.FrameBuf
}

func newTCPConn(c net.Conn, stats *Stats) *tcpConn {
	tc := &tcpConn{c: c, stats: stats}
	tc.w = newWriter(tc.writeBatch, stats)
	stats.OpenConns.Add(1)
	return tc
}

// close shuts the socket down and releases the writer. Idempotent.
func (tc *tcpConn) close() {
	tc.once.Do(func() {
		tc.w.close()
		tc.c.Close()
		tc.stats.OpenConns.Add(-1)
	})
}

// writeBatch turns one coalesced batch into one scatter-gather socket
// write. Frames below writevBytes are copied into a staging buffer whose
// chunks become iovecs; frames at or above it contribute their own bytes
// as an iovec directly — AppendEnvelope put the length prefix in the same
// buffer, so large frames reach the kernel with zero copies. The whole
// batch then goes out via net.Buffers.WriteTo, which is writev(2) on a
// *net.TCPConn.
//
// Ownership: staged frames are recycled as soon as their bytes are copied;
// writev frames must outlive the write, so they are held in owned and
// recycled only after WriteTo returns.
func (tc *tcpConn) writeBatch(frames []*wire.FrameBuf) error {
	// Pre-size the staging buffer so chunk slices recorded in bufs are
	// never invalidated by a growth reallocation mid-batch.
	small := 0
	for _, f := range frames {
		if len(f.B) < writevBytes {
			small += len(f.B)
		}
	}
	if cap(tc.stage) < small {
		tc.stage = make([]byte, 0, small)
	}
	stage, bufs := tc.stage[:0], tc.bufs[:0]
	chunk := 0 // start of the staging chunk not yet recorded in bufs
	for _, f := range frames {
		if len(f.B) >= writevBytes {
			if len(stage) > chunk {
				bufs = append(bufs, stage[chunk:len(stage):len(stage)])
				chunk = len(stage)
			}
			bufs = append(bufs, f.B)
			tc.owned = append(tc.owned, f)
			tc.stats.WritevBytes.Add(uint64(len(f.B)))
		} else {
			stage = append(stage, f.B...)
			wire.PutFrame(f)
		}
	}
	if len(stage) > chunk {
		bufs = append(bufs, stage[chunk:])
	}
	var err error
	if len(bufs) > 0 {
		nb := net.Buffers(bufs)
		_, err = nb.WriteTo(tc.c)
	}
	for i, f := range tc.owned {
		wire.PutFrame(f)
		tc.owned[i] = nil
	}
	tc.owned = tc.owned[:0]
	clear(bufs) // drop stale references so recycled arrays are collectable
	tc.stage, tc.bufs = stage[:0], bufs[:0]
	return err
}

// tcpNode is an endpoint whose carrier is real sockets: frames leave
// through one connection per destination and each inbound request runs on
// a worker its read loop spawns.
type tcpNode struct {
	endpoint
	t  *TCP
	ln net.Listener

	mu      sync.Mutex
	conns   map[wire.Addr]*tcpConn      // routable by learned or dialed peer
	all     map[*tcpConn]struct{}       // every live conn, learned or not
	dialing map[wire.Addr]chan struct{} // single-flight latches for in-progress dials
}

func (n *tcpNode) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.startConn(newTCPConn(c, &n.t.stats))
	}
}

// startConn registers tc and launches its reader and writer goroutines.
// Returns false (and closes tc) if the node is already shut down.
func (n *tcpNode) startConn(tc *tcpConn) bool {
	n.mu.Lock()
	if n.closed.Load() {
		n.mu.Unlock()
		tc.close()
		return false
	}
	n.all[tc] = struct{}{}
	// Add under n.mu: Close sets closed before taking n.mu to snapshot
	// conns, so this Add is always ordered before Close's wg.Wait (Add
	// racing Wait at counter zero is documented WaitGroup misuse).
	n.wg.Add(2)
	n.mu.Unlock()
	go n.readLoop(tc)
	go n.writeLoop(tc)
	return true
}

// writeLoop hosts the conn's writer and tears the conn down when it stops
// (socket error or close).
func (n *tcpNode) writeLoop(tc *tcpConn) {
	defer n.wg.Done()
	tc.w.run()
	n.forget(tc)
	tc.close()
}

// learn records that frames from peer arrive on tc, so responses can flow
// back over the same connection. First learner wins the routing entry; a
// conn that loses (a symmetric dial race, or a fresh conn racing a stale
// one) still remembers its peer and is promoted by forget when the
// registered conn dies, so the peer never becomes unroutable (clients are
// not in the directory) and the read hot path stays one atomic load.
func (n *tcpNode) learn(peer wire.Addr, tc *tcpConn) {
	tc.peer.Store(uint32(peer))
	n.mu.Lock()
	if _, dup := n.conns[peer]; !dup {
		n.conns[peer] = tc
	}
	n.mu.Unlock()
}

// forget removes tc from both connection maps. If tc held the routing
// entry for its peer, another live conn that knows the same peer (a learn
// race loser) is promoted in its place.
func (n *tcpNode) forget(tc *tcpConn) {
	n.mu.Lock()
	delete(n.all, tc)
	peer := wire.Addr(tc.peer.Load())
	if peer.Valid() && n.conns[peer] == tc {
		delete(n.conns, peer)
		for other := range n.all {
			if wire.Addr(other.peer.Load()) == peer {
				n.conns[peer] = other
				break
			}
		}
	}
	n.mu.Unlock()
}

// readLoop decodes frames from tc, learning the peer's address from the
// first envelope carrying a valid source. Frames do not carry their
// destination: whatever arrives on this node's sockets is for this node,
// so each envelope's Dst is stamped with n.addr. Responses are matched to
// pending Calls inline; each request runs on a worker of its own.
func (n *tcpNode) readLoop(tc *tcpConn) {
	defer n.wg.Done()
	defer func() {
		n.forget(tc)
		tc.close()
	}()
	br := bufio.NewReaderSize(tc.c, readBufSize)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(hdr[:])
		if size > maxFrame {
			return
		}
		f, err := readBody(br, int(size))
		if err != nil {
			return
		}
		env, err := wire.DecodeEnvelope(f.B)
		wire.PutFrame(f) // DecodeEnvelope copies fields out; safe to recycle
		if err != nil {
			n.t.stats.Dropped.Add(1)
			continue
		}
		env.Dst = n.addr
		if !wire.Addr(tc.peer.Load()).Valid() && env.Src.Valid() {
			n.learn(env.Src, tc)
		}
		if env.Resp {
			n.deliverResponse(env)
			continue
		}
		// Every request runs on a worker of its own (spawn), never queued
		// behind a running handler; client requests are bounded by the
		// admission gate inside serve. Safe to Add here: this loop holds a
		// wg slot, so Close's Wait cannot be at zero.
		n.wg.Add(1)
		n.spawn(func() { n.serve(env) })
	}
}

// readBody reads a size-byte frame body. A body of at most readChunk
// bytes is read into a pooled frame at once; a larger one starts at
// readChunk and doubles only as its bytes arrive, so a length prefix alone
// pins at most readChunk, never maxFrame.
func readBody(r io.Reader, size int) (*wire.FrameBuf, error) {
	if size <= readChunk {
		f := wire.GetFrameLen(size)
		if _, err := io.ReadFull(r, f.B); err != nil {
			wire.PutFrame(f)
			return nil, err
		}
		return f, nil
	}
	b, got := make([]byte, readChunk), 0
	for {
		if _, err := io.ReadFull(r, b[got:]); err != nil {
			return nil, err
		}
		if got = len(b); got == size {
			// Above the pool's bound: PutFrame drops it.
			return &wire.FrameBuf{Buffer: wire.Buffer{B: b}}, nil
		}
		grown := make([]byte, min(size, 2*got))
		copy(grown, b)
		b = grown
	}
}

// getConn returns the connection to dst, dialing through the directory if
// none is learned yet. The dial respects ctx, so a Call deadline bounds
// connection establishment too, not just queueing.
//
// Dials are single-flighted per destination: when many sessions' first
// calls reach a cold destination at once (a mux starting a thousand
// sessions), exactly one goroutine dials and the rest wait on its latch —
// without it, each racer briefly opens a socket of its own.
func (n *tcpNode) getConn(ctx context.Context, dst wire.Addr) (*tcpConn, error) {
	n.mu.Lock()
	for {
		if tc, ok := n.conns[dst]; ok {
			n.mu.Unlock()
			return tc, nil
		}
		latch, inflight := n.dialing[dst]
		if !inflight {
			break
		}
		n.mu.Unlock()
		select {
		case <-latch:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-n.stop:
			return nil, ErrClosed
		}
		// The winner either registered a conn (found on re-check) or
		// failed (this caller retries the dial itself).
		n.mu.Lock()
	}
	latch := make(chan struct{})
	n.dialing[dst] = latch
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.dialing, dst)
		n.mu.Unlock()
		close(latch)
	}()

	n.t.mu.Lock()
	hp, ok := n.t.dir[dst]
	n.t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoRoute, dst)
	}
	// Abort the dial on node shutdown too: Send/Respond dial with a
	// Background context, and Close must not sit in wg.Wait for the
	// kernel connect timeout behind a blackholed peer.
	dialCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-n.stop:
			cancel()
		case <-dialCtx.Done():
		}
	}()
	var d net.Dialer
	c, err := d.DialContext(dialCtx, "tcp", hp)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %v at %s: %w", dst, hp, err)
	}
	tc := newTCPConn(c, &n.t.stats)
	tc.peer.Store(uint32(dst))
	n.mu.Lock()
	if prev, dup := n.conns[dst]; dup {
		n.mu.Unlock()
		// Tear the whole loser conn down, not just its socket: close()
		// also stops the writer, so a frame enqueued on the loser before
		// registration could never strand in a writerless queue.
		tc.close()
		return prev, nil
	}
	n.conns[dst] = tc
	n.mu.Unlock()
	if !n.startConn(tc) {
		return nil, ErrClosed
	}
	return tc, nil
}

// send is the endpoint's carry: it finds (or dials) the connection to the
// destination and commits the frame to its writer.
func (n *tcpNode) send(ctx context.Context, env wire.Envelope) error {
	tc, err := n.getConn(ctx, env.Dst)
	if err != nil {
		return err
	}
	f := wire.GetFrame()
	f.AppendEnvelope(&env)
	// Exclude the 4-byte length prefix so BytesSent counts envelope bytes
	// on both transports (Local has no framing), keeping the paper's
	// communication-overhead metrics comparable across deployments. Counted
	// before enqueue, whose writer may send f and see the reply before it
	// returns; a refused send is taken back, so aborts inflate nothing.
	t, bytes := env.Msg.Type(), uint64(len(f.B)-wire.FrameHdrLen)
	n.stats.sent(t, 1, bytes)
	if err := tc.w.enqueue(ctx, f); err != nil {
		n.stats.sent(t, -1, bytes)
		return err
	}
	return nil
}

// Close shuts the node down: listener, admission gate, sessions, and every
// live connection — learned or not — then waits out its handlers, so no
// readLoop/writeLoop/handler goroutine or file descriptor outlives the
// node.
func (n *tcpNode) Close() error {
	// shut drains the gate's park queues before the goroutines are waited
	// out below: parked requests hold wg slots their drop closures release.
	if !n.shut() {
		return nil
	}
	if n.ln != nil {
		n.ln.Close()
	}
	n.mu.Lock()
	conns := make([]*tcpConn, 0, len(n.all))
	for tc := range n.all {
		conns = append(conns, tc)
	}
	n.mu.Unlock()
	for _, tc := range conns {
		tc.close()
	}
	n.t.mu.Lock()
	delete(n.t.nodes, n.addr)
	n.t.mu.Unlock()
	n.wg.Wait()
	return nil
}
