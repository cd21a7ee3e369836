package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestTCPClientZeroAddr is the regression test for the ClientAddr(0, 0)
// collision: that address used to encode to Addr(0), matching the
// "unlearned peer" sentinel in readLoop, so the server never learned the
// client's connection and responses failed with ErrNoRoute.
func TestTCPClientZeroAddr(t *testing.T) {
	dir := map[wire.Addr]string{wire.ServerAddr(0, 0): freeAddr(t)}
	net := NewTCP(dir)
	defer net.Close()
	if _, err := net.Attach(wire.ServerAddr(0, 0), &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	cli, err := net.Attach(wire.ClientAddr(0, 0), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, wire.ServerAddr(0, 0), &wire.Ping{Nonce: 99})
	if err != nil {
		t.Fatalf("Call as client (0,0): %v", err)
	}
	if pong, ok := resp.(*wire.Pong); !ok || pong.Nonce != 99 {
		t.Fatalf("resp = %+v", resp)
	}
}

// slowHandler responds to Ping after a delay, so a Call can be in flight
// when the network shuts down.
type slowHandler struct{ delay time.Duration }

func (s *slowHandler) Handle(n Node, src wire.From, reqID uint64, m wire.Message) {
	if reqID == 0 {
		return
	}
	time.Sleep(s.delay)
	if p, ok := m.(*wire.Ping); ok {
		n.Respond(src, reqID, &wire.Pong{Nonce: p.Nonce})
	}
}

// TestTCPCloseReleasesResources asserts that Close tears down every
// goroutine and socket the transport created — including accepted
// connections that never sent a frame (half-open, unlearned) and calls
// still in flight. The seed leaked both: send forgot broken conns without
// closing them, and Close only closed learned conns.
func TestTCPCloseReleasesResources(t *testing.T) {
	before := runtime.NumGoroutine()

	hp := freeAddr(t)
	dir := map[wire.Addr]string{wire.ServerAddr(0, 0): hp}
	tnet := NewTCP(dir)
	if _, err := tnet.Attach(wire.ServerAddr(0, 0), &slowHandler{delay: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cli, err := tnet.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}

	// A half-open connection: accepted by the server, never sends a frame,
	// so the server cannot learn its address.
	raw, err := net.Dial("tcp", hp)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// An in-flight Call: the handler is still sleeping when Close runs.
	callErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := cli.Call(ctx, wire.ServerAddr(0, 0), &wire.Ping{Nonce: 1})
		callErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the handler

	if err := tnet.Close(); err != nil {
		t.Fatal(err)
	}

	// The in-flight call must fail fast, not hang until its deadline.
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("in-flight call succeeded across Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung across Close")
	}

	// The server must have closed the accepted half-open socket.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("half-open conn read err = %v, want EOF", err)
	}

	// Every transport goroutine (accept/read/write loops, handlers) must
	// exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines: %d before, %d after Close\n%s",
			before, g, buf[:runtime.Stack(buf, true)])
	}
}

// TestTCPAttachListenFailureStartsNothing: an admission-enabled server
// address whose port is taken fails to attach, and the failed attach
// leaves no goroutine behind and no node.
func TestTCPAttachListenFailureStartsNothing(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	tnet := NewTCP(map[wire.Addr]string{wire.ServerAddr(0, 0): taken.Addr().String()})
	defer tnet.Close()
	tnet.SetAdmission(2)
	before := runtime.NumGoroutine()
	if _, err := tnet.Attach(wire.ServerAddr(0, 0), &echoHandler{}); err == nil {
		t.Fatal("attach on a port in use succeeded")
	}
	if g := runtime.NumGoroutine(); g > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines: %d before the failed attach, %d after\n%s", before, g, buf[:runtime.Stack(buf, true)])
	}
	if _, dup := tnet.nodes[wire.ServerAddr(0, 0)]; dup {
		t.Fatal("a failed attach registered its node")
	}
}

// TestTCPLearnRaceLoserPromoted pins the learn-race semantics: when two
// connections to the same peer race (symmetric dials, or a reconnect while
// the stale conn lingers), the loser must be promoted into the routing map
// once the winner is forgotten. The loser used to stay stranded forever —
// the peer became unroutable because clients are not in the directory.
func TestTCPLearnRaceLoserPromoted(t *testing.T) {
	n := &tcpNode{conns: make(map[wire.Addr]*tcpConn), all: make(map[*tcpConn]struct{})}
	peer := wire.ClientAddr(0, 7)
	stale, fresh := &tcpConn{}, &tcpConn{}
	n.all[stale] = struct{}{}
	n.all[fresh] = struct{}{}
	n.learn(peer, stale)
	n.learn(peer, fresh) // loses the race but remembers its peer
	if n.conns[peer] != stale {
		t.Fatal("first learner did not win the routing entry")
	}
	n.forget(stale)
	if n.conns[peer] != fresh {
		t.Fatal("surviving conn not promoted after forget; peer unroutable")
	}
	n.forget(fresh)
	if _, ok := n.conns[peer]; ok {
		t.Fatal("routing entry survived its last conn")
	}
}

// TestTCPCallDeadlineUnderBackpressure asserts that a Call whose frame
// cannot even be queued — the peer reads nothing, so the send queue is
// full and the writer is blocked on the socket — still honours its
// context deadline instead of blocking until the connection dies.
func TestTCPCallDeadlineUnderBackpressure(t *testing.T) {
	// A peer that accepts the connection and then never reads.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	dir := map[wire.Addr]string{wire.ServerAddr(0, 0): ln.Addr().String()}
	tnet := NewTCP(dir)
	defer tnet.Close()
	cli, err := tnet.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}

	// Fill kernel buffers and then the send queue; the filler eventually
	// blocks in enqueue and is freed by the deferred Close.
	payload := &wire.PutReq{Key: "k", Value: make([]byte, 64<<10)}
	go func() {
		for {
			if err := cli.Send(wire.ServerAddr(0, 0), payload); err != nil {
				return
			}
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for tnet.Stats().SendQueue.Load() < sendQueueLen && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if q := tnet.Stats().SendQueue.Load(); q < sendQueueLen {
		t.Fatalf("send queue never filled (depth %d)", q)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cli.Call(ctx, wire.ServerAddr(0, 0), &wire.Ping{Nonce: 1})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("Call blocked %v past its 200ms deadline", since)
	}
	select {
	case c := <-accepted:
		c.Close()
	default:
	}
}

// TestTCPCloseAbortsPendingDial asserts that node shutdown cancels an
// in-progress dial: a Send dialing a blackholed peer with a Background
// context used to pin Close in wg.Wait for the kernel connect timeout
// (minutes) when the sender ran on a transport-tracked goroutine.
func TestTCPCloseAbortsPendingDial(t *testing.T) {
	// TEST-NET-1 (RFC 5737) is never allocated: the SYN usually
	// blackholes (dial hangs, the case under test); environments where it
	// fails fast or is transparently accepted pass trivially.
	dir := map[wire.Addr]string{wire.ServerAddr(0, 0): "192.0.2.1:9"}
	tnet := NewTCP(dir)
	cli, err := tnet.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	sendErr := make(chan error, 1)
	go func() {
		sendErr <- cli.Send(wire.ServerAddr(0, 0), &wire.Ping{Nonce: 1})
	}()
	time.Sleep(50 * time.Millisecond) // let the Send reach the dial
	done := make(chan struct{})
	go func() {
		tnet.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind an in-flight dial")
	}
	select {
	case <-sendErr:
		// The error value is environment-dependent (a NAT/proxy may even
		// accept the dial); what matters is that the Send unblocked.
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked in dial after Close")
	}
}

// TestTCPCoalescingUnderLoad pins coalescing on a real socket
// deterministically: the peer accepts but does not read, so the writer
// blocks in its socket write while the send queue builds a known backlog;
// once the peer starts draining, that backlog MUST be retired in shared
// batches, and the counters must observe it.
func TestTCPCoalescingUnderLoad(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	dir := map[wire.Addr]string{wire.ServerAddr(0, 0): ln.Addr().String()}
	tnet := NewTCP(dir)
	defer tnet.Close()
	cli, err := tnet.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}

	// Enough volume that the un-read peer's kernel buffers (which can
	// auto-tune to several MB) cannot absorb it all: the send queue MUST
	// build the asserted backlog.
	const frames, backlog = 4000, 600
	payload := &wire.PutReq{Key: "k", Value: make([]byte, 8192)}
	sendErrs := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := cli.Send(wire.ServerAddr(0, 0), payload); err != nil {
				sendErrs <- err
				return
			}
		}
		sendErrs <- nil
	}()

	// Kernel buffers fill, the writer blocks, the queue builds.
	deadline := time.Now().Add(30 * time.Second)
	for tnet.Stats().SendQueue.Load() < backlog && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if q := tnet.Stats().SendQueue.Load(); q < backlog {
		t.Fatalf("send queue built only %d/%d frames", q, backlog)
	}

	// Unblock: drain the socket; the queued backlog must flush in batches.
	var peer net.Conn
	select {
	case peer = <-accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("peer never accepted")
	}
	defer peer.Close()
	go io.Copy(io.Discard, peer)

	if err := <-sendErrs; err != nil {
		t.Fatal(err)
	}
	// Wait for every frame to be counted as flushed, not for an empty queue:
	// the writer takes frames off the SendQueue gauge while gathering and
	// counts the flush only after the socket write returns, so at queue-empty
	// the last batch is still being written.
	flushed := func() uint64 {
		return tnet.Stats().Flushes.Load() + tnet.Stats().FramesCoalesced.Load()
	}
	for flushed() < frames && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if q := tnet.Stats().SendQueue.Load(); q > 0 {
		t.Fatalf("send queue never drained (%d left)", q)
	}

	v := tnet.Stats().View()
	if v.Flushes == 0 {
		t.Fatal("Flushes = 0; writer never flushed")
	}
	// The observed 600-frame backlog alone must have coalesced into
	// ≤256 KiB batches (32 of these 8 KiB frames each): well over 400
	// frames shared a flush even if everything else went out solo.
	if v.FramesCoalesced < 400 {
		t.Fatalf("FramesCoalesced = %d; a %d-frame backlog was not batched", v.FramesCoalesced, backlog)
	}
	if v.Flushes+v.FramesCoalesced < frames {
		t.Fatalf("flushes %d + coalesced %d < %d frames sent", v.Flushes, v.FramesCoalesced, frames)
	}
	if v.SendQueuePeak < backlog {
		t.Fatalf("SendQueuePeak = %d; gauge not wired", v.SendQueuePeak)
	}
	if v.FlushP99Delay == 0 {
		t.Fatal("FlushP99Delay = 0; delay histogram not wired")
	}
	t.Logf("msgs=%d flushes=%d coalesced=%d (%.1f frames/flush) queuePeak=%d p99=%v",
		v.MsgsSent, v.Flushes, v.FramesCoalesced,
		float64(v.Flushes+v.FramesCoalesced)/float64(v.Flushes), v.SendQueuePeak, v.FlushP99Delay)
}

// TestTCPScatterGatherInterleaving is the framing property test for the
// writev path: pseudorandom small (staged, copied) and large
// (scatter-gathered, zero-copy) frames interleave on one connection, and
// every payload must reassemble byte-exactly on the peer — any
// pooled-buffer reuse before the writev consumed its bytes, or any
// mis-spliced staging chunk, corrupts a payload. Run under -race in CI.
func TestTCPScatterGatherInterleaving(t *testing.T) {
	const msgs = 400
	dir := map[wire.Addr]string{wire.ServerAddr(0, 0): freeAddr(t)}
	tnet := NewTCP(dir)
	defer tnet.Close()

	// value derives every byte from the key's sequence number, so the
	// receiver can verify content without assuming arrival order.
	value := func(seq, size int) []byte {
		v := make([]byte, size)
		for i := range v {
			v[i] = byte(seq*31 + i*7)
		}
		return v
	}
	sizeOf := func(rng *rand.Rand) int {
		switch rng.Intn(4) {
		case 0: // large: writev path, well past the threshold
			return writevBytes + rng.Intn(128<<10)
		case 1: // boundary straddlers
			return writevBytes - 64 + rng.Intn(128)
		default: // small: staging path
			return 16 + rng.Intn(2048)
		}
	}

	var (
		verified atomic.Uint64
		bad      atomic.Uint64
	)
	srv := HandlerFunc(func(n Node, src wire.From, reqID uint64, m wire.Message) {
		pr, ok := m.(*wire.PutReq)
		if !ok {
			return
		}
		seq, err := strconv.Atoi(pr.Key)
		if err != nil {
			bad.Add(1)
			return
		}
		want := value(seq, len(pr.Value))
		if !bytes.Equal(pr.Value, want) {
			bad.Add(1)
			t.Errorf("seq %d: payload of %d bytes corrupted", seq, len(pr.Value))
			return
		}
		verified.Add(1)
	})
	if _, err := tnet.Attach(wire.ServerAddr(0, 0), srv); err != nil {
		t.Fatal(err)
	}
	cli, err := tnet.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}

	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, msgs)
	for i := range sizes {
		sizes[i] = sizeOf(rng)
	}
	for i, size := range sizes {
		if err := cli.Send(wire.ServerAddr(0, 0), &wire.PutReq{Key: strconv.Itoa(i), Value: value(i, size)}); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for verified.Load()+bad.Load() < msgs && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := verified.Load(); got != msgs || bad.Load() != 0 {
		t.Fatalf("verified %d/%d payloads (%d corrupt)", got, msgs, bad.Load())
	}
	v := tnet.Stats().View()
	if v.WritevBytes == 0 {
		t.Fatal("WritevBytes = 0: no frame took the scatter-gather path")
	}
	t.Logf("writev bytes=%d of %d total", v.WritevBytes, v.BytesSent)
}

// TestTCPLengthPrefixPinsNoMemory: a peer that announces a 60 MiB frame,
// sends a few body bytes and closes makes the node allocate about one read
// chunk, not the announced size, and the connection's goroutines exit.
func TestTCPLengthPrefixPinsNoMemory(t *testing.T) {
	hp := freeAddr(t)
	tnet := NewTCP(map[wire.Addr]string{wire.ServerAddr(0, 0): hp})
	defer tnet.Close()
	if _, err := tnet.Attach(wire.ServerAddr(0, 0), &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	c, err := net.Dial("tcp", hp)
	if err != nil {
		t.Fatal(err)
	}
	msg := binary.LittleEndian.AppendUint32(nil, 60<<20)
	msg = append(msg, "a few body bytes"...)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	c.Close()

	deadline := time.Now().Add(10 * time.Second)
	for (tnet.Stats().OpenConns.HighWater() == 0 || tnet.Stats().OpenConns.Load() != 0 ||
		runtime.NumGoroutine() > before) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := tnet.Stats().OpenConns.Load(); n != 0 || tnet.Stats().OpenConns.HighWater() == 0 {
		t.Fatalf("open conns = %d (peak %d); the connection was not accepted and closed", n, tnet.Stats().OpenConns.HighWater())
	}
	if g := runtime.NumGoroutine(); g > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines: %d before, %d after the peer closed\n%s", before, g, buf[:runtime.Stack(buf, true)])
	}
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("a 60 MiB length prefix allocated %d bytes; want < 8 MiB", grew)
	}
}

// TestReadBodySizes: readBody returns every body byte-exact on both sides
// of the read chunk and across several doublings, and fails on a body cut
// short.
func TestReadBodySizes(t *testing.T) {
	for _, size := range []int{0, 1, readChunk - 1, readChunk, readChunk + 1, 5*readChunk + 3} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i * 7)
		}
		f, err := readBody(bytes.NewReader(body), size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(f.B, body) {
			t.Fatalf("size %d: body corrupted", size)
		}
		wire.PutFrame(f)
		if _, err := readBody(bytes.NewReader(body[:size/2]), size); size > 0 && err == nil {
			t.Fatalf("size %d: a body cut short read without error", size)
		}
	}
}

// TestTCPReconnectAfterPeerRestart exercises the forget-and-redial path:
// after the server is torn down and replaced, the client's next call must
// detect the dead connection and dial fresh.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	dir := map[wire.Addr]string{wire.ServerAddr(0, 0): freeAddr(t)}
	net1 := NewTCP(dir)
	if _, err := net1.Attach(wire.ServerAddr(0, 0), &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	net2 := NewTCP(dir)
	defer net2.Close()
	cli, err := net2.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cli.Call(ctx, wire.ServerAddr(0, 0), &wire.Ping{Nonce: 1}); err != nil {
		t.Fatal(err)
	}

	net1.Close()
	net3 := NewTCP(dir)
	defer net3.Close()
	if _, err := net3.Attach(wire.ServerAddr(0, 0), &echoHandler{}); err != nil {
		t.Fatal(err)
	}

	// The first call(s) after the restart may fail while the client still
	// holds the dead connection; it must recover within a few attempts.
	var lastErr error
	for i := 0; i < 50; i++ {
		cctx, ccancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, lastErr = cli.Call(cctx, wire.ServerAddr(0, 0), &wire.Ping{Nonce: 2})
		ccancel()
		if lastErr == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("client never recovered after peer restart: %v", lastErr)
}

func BenchmarkTCPOneWayPipelined(b *testing.B) {
	// One-way sends through a single connection: the coalescing writer's
	// best case (many frames per flush).
	dir := map[wire.Addr]string{wire.ServerAddr(0, 0): freeAddr(b)}
	tnet := NewTCP(dir)
	defer tnet.Close()
	h := &echoHandler{}
	if _, err := tnet.Attach(wire.ServerAddr(0, 0), h); err != nil {
		b.Fatal(err)
	}
	cli, err := tnet.Attach(wire.ClientAddr(0, 1), HandlerFunc(func(Node, wire.From, uint64, wire.Message) {}))
	if err != nil {
		b.Fatal(err)
	}
	msg := &wire.PutReq{Key: "k", Value: make([]byte, 128)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(wire.ServerAddr(0, 0), msg); err != nil {
			b.Fatal(err)
		}
	}
	for h.oneways.Load() < uint64(b.N) {
		time.Sleep(time.Millisecond)
	}
}

// FuzzTCPReadLoop feeds arbitrary bytes to an attached node's frame reader
// through a connection over net.Pipe. The reader must never panic, must end
// the connection at a length prefix above maxFrame, and must exit once the
// pipe closes, after which the network's Close returns.
func FuzzTCPReadLoop(f *testing.F) {
	ping := wire.EncodeEnvelope(nil, &wire.Envelope{Src: wire.ClientAddr(0, 1), ReqID: 1, Msg: &wire.Ping{Nonce: 7}})
	f.Add(append(binary.LittleEndian.AppendUint32(nil, uint32(len(ping))), ping...))
	f.Add([]byte{9, 0})                                      // a truncated length prefix
	f.Add(binary.LittleEndian.AppendUint32(nil, 60<<20))     // a 60 MiB body that never arrives
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrame+1)) // one byte over the bound
	f.Fuzz(func(t *testing.T, p []byte) {
		tnet := NewTCP(nil)
		n, err := tnet.attach(wire.ServerAddr(0, 0), &echoHandler{})
		if err != nil {
			t.Fatal(err)
		}
		local, remote := net.Pipe()
		defer remote.Close()
		if !n.startConn(newTCPConn(local, &tnet.stats)) {
			t.Fatal("startConn refused a live node")
		}
		ended := make(chan struct{}) // the node closed its end
		go func() {
			io.Copy(io.Discard, remote) // responses to any Ping in p
			close(ended)
		}()
		remote.SetWriteDeadline(time.Now().Add(5 * time.Second))
		_, werr := remote.Write(p)
		if oversizedFrame(p) {
			select {
			case <-ended:
			case <-time.After(5 * time.Second):
				t.Fatal("a length prefix above maxFrame left the connection open")
			}
		} else if werr != nil {
			t.Fatalf("the reader stopped before the pipe closed: %v", werr)
		}
		remote.Close()
		for deadline := time.Now().Add(5 * time.Second); tnet.stats.OpenConns.Load() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the read loop outlived its closed pipe")
			}
		}
		closed := make(chan struct{})
		go func() {
			tnet.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return within 5 s")
		}
	})
}

// oversizedFrame reports whether reading p frame by frame reaches a length
// prefix above maxFrame.
func oversizedFrame(p []byte) bool {
	for len(p) >= wire.FrameHdrLen {
		size := binary.LittleEndian.Uint32(p)
		if size > maxFrame {
			return true
		}
		if uint64(len(p)-wire.FrameHdrLen) < uint64(size) {
			return false
		}
		p = p[wire.FrameHdrLen+int(size):]
	}
	return false
}
